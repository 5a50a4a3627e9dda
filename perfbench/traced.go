package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pathhist"
	"pathhist/internal/hist"
	"pathhist/internal/network"
	"pathhist/internal/query"
	"pathhist/internal/sharded"
	"pathhist/internal/snt"
	"pathhist/internal/traj"
	"pathhist/internal/ttserve"
	"pathhist/internal/wal"
)

// The traced run replays a workload in-process, sequentially, timing each
// layer through its public functions:
//
//	ttserve.request   Server.ServeHTTP (or the sharded front's) on /query
//	sharded.query     Cluster.Query on the same query (ingest-live)
//	query.trip        query.Engine.TripQueryCtx on a twin engine fed the
//	                  same stream (route-cold) or on an unsharded, estimator-off
//	                  engine holding the same data (ingest-live)
//	temporal.scan     snt.Index.GetTravelTimesWith on each final sub-query,
//	fmindex.search    snt.Index.ISARanges on its path (child of the scan),
//	hist.build        hist.FromSamples of its samples,
//	hist.convolve     the fold of the sub-query histograms
//
// Each span's children replay the work below it, so self time is a span
// minus its children; ttserve.request's self time is the HTTP, parsing and
// encoding work around the engine. Ingest (ingest-live) is timed the same
// way: traj.decode, wal.append on the benchmark's own log, sharded.extend
// (POST /extend through the front), snt.extend and snt.compact on the
// unsharded engine.
const (
	// untracedShare of the measured seconds replays the stream untraced;
	// the traced pass then replays the same requests (route-cold).
	untracedShare = 0.3
	// overheadQueries is how many requests ingest-live replays both
	// untraced and traced at data version 0 to measure tracing overhead.
	overheadQueries = 200
	// liveQueriesPerBatch is how many queries ingest-live replays after
	// each ingested batch: the end-to-end run's open-loop rate over its
	// write rate (70 / 4).
	liveQueriesPerBatch = 17
	// liveCompactEvery is how often the unsharded engine compacts: when
	// each of the two shards reaches the server's 16-partition trigger.
	liveCompactEvery = 30
	// bucketSeconds is the engines' histogram bucket width (the default).
	bucketSeconds = 10
)

func runTraced(o options) (*result, error) {
	d := generate(o.seed)
	if err := chooseTraced(o, d); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.set(m.name, 0) // layers a workload does not exercise stay 0
	}
	tr := newTracer()
	ls := &layerStats{}
	var err error
	if o.wl.sharded {
		err = traceLive(o, d, tr, ls, res)
	} else {
		err = traceRoute(o, d, tr, ls, res)
	}
	if err != nil {
		return nil, err
	}
	setQueryLayers(res, tr, ls)
	fmt.Print(tr.layerTable(o.wl.name))
	if ls.replayMismatch > 0 {
		logf("%d replayed scans returned a different sample count than the query saw", ls.replayMismatch)
	}
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, err
	}
	// One file per workload, replaced by each traced run: a full run's spans
	// take tens of megabytes.
	out := filepath.Join(o.traceDir, o.wl.name+".jsonl")
	if err := tr.write(out); err != nil {
		return nil, err
	}
	logf("%d spans written to %s", len(tr.spans), out)
	return res, nil
}

// chooseTraced screens the cold pool as the end-to-end run does, route-cold
// on an engine of its own that is closed before the replay.
func chooseTraced(o options, d *dataset) error {
	if o.wl.sharded {
		return d.choose(nil)
	}
	eng, err := pathhist.NewEngine(d.G, d.baseCopy(), referenceOptions(false))
	if err != nil {
		return err
	}
	defer eng.Close()
	return d.choose(eng)
}

// layerStats accumulates the counters of the traced replay.
type layerStats struct {
	queries, fullHits        int
	indexScans, skips        int
	cacheHits, cacheMisses   int
	dataSubs                 int // final data-backed sub-queries of computed queries
	searches                 int // FM-index backward searches (per partition)
	candidates, samples      int
	convolutions             int
	mallocs, allocBytes      uint64
	replayMismatch           int
	responseBytes, responses int
	wrong, failed            int
}

// serve runs one in-process request against h.
func serve(h http.Handler, method, target string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// spqOf is the query-engine form of a request, as pathhist.Engine.Query
// derives it.
func spqOf(q querySpec) query.SPQ {
	pq := q.query()
	iv := snt.NewFixed(pq.From, pq.Until)
	if pq.Periodic {
		iv = snt.PeriodicAround(pq.Around, pq.WindowSeconds)
	}
	f := snt.Filter{User: traj.NoUser, ExcludeTraj: -1}
	if pq.FilterUser {
		f.User = pq.User
	}
	return query.SPQ{Path: pq.Path, Interval: iv, Filter: f, Beta: pq.Beta}
}

// traceTrip runs q on the query engine in a query.trip span under parent
// and replays its final sub-queries' work below it. It returns the answer.
func traceTrip(tr *tracer, ls *layerStats, qe *query.Engine, q querySpec, parent, req int) (answer, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var r query.Result
	var err error
	id := tr.timed("query.trip", parent, req, func() { r, err = qe.TripQueryCtx(context.Background(), spqOf(q)) })
	runtime.ReadMemStats(&after)
	if err != nil {
		return answer{}, err
	}
	ls.queries++
	ls.mallocs += after.Mallocs - before.Mallocs
	ls.allocBytes += after.TotalAlloc - before.TotalAlloc
	ls.indexScans += r.IndexScans
	ls.skips += r.EstimatorSkips
	ls.cacheHits += r.CacheHits
	ls.cacheMisses += r.CacheMisses
	if r.FullCacheHit {
		ls.fullHits++ // nothing below ran
		return tripAnswer(&r), nil
	}
	ix := qe.Index()
	_, tmax := ix.TimeRange()
	sc := snt.AcquireScratch()
	defer snt.ReleaseScratch(sc)
	for i := range r.Subs {
		s := &r.Subs[i]
		if !s.Fallback && len(s.X) > 0 {
			ls.dataSubs++
		}
		// A fixed interval past the indexed data is the terminal
		// relaxation step, which runs without a sample-size requirement.
		beta := q.query().Beta
		if !s.Interval.IsPeriodic() && s.Interval.End > tmax {
			beta = 0
		}
		var n int
		scan := tr.timed("temporal.scan", id, req, func() {
			xs, _ := ix.GetTravelTimesWith(sc, s.Path, s.Interval, s.Filter, beta)
			n = len(xs)
		})
		var ranges []snt.Range
		tr.timed("fmindex.search", scan, req, func() { ranges = ix.ISARanges(s.Path) })
		ls.searches += len(ranges)
		for _, rg := range ranges {
			ls.candidates += int(rg.Ed - rg.St)
		}
		ls.samples += n
		if n != len(s.X) {
			ls.replayMismatch++
		}
		tr.timed("hist.build", id, req, func() { hist.FromSamples(s.X, bucketSeconds).Recycle() })
	}
	tr.timed("hist.convolve", id, req, func() { convolveAll(r.Subs) })
	ls.convolutions += max(len(r.Subs)-1, 0)
	return tripAnswer(&r), nil
}

// convolveAll folds the sub-query histograms in path order the way the
// engine does, recycling every intermediate and the result.
func convolveAll(subs []query.SubResult) {
	var conv *hist.Histogram
	owned := false
	for i := range subs {
		next := conv.Convolve(subs[i].Hist)
		if owned && next != conv {
			conv.Recycle()
		}
		owned = conv != nil && subs[i].Hist != nil
		conv = next
	}
	if owned {
		conv.Recycle()
	}
}

// checkServed compares a served body with the expected answer.
func (ls *layerStats) checkServed(status int, body []byte, want answer, target string) {
	ls.responses++
	ls.responseBytes += len(body)
	got, err := decodeAnswer(body)
	if status != http.StatusOK || err != nil {
		if ls.failed == 0 {
			logf("first failed request %s: status %d: %v", target, status, err)
		}
		ls.failed++
		return
	}
	if d := got.diff(want); d != "" {
		if ls.wrong == 0 {
			logf("%s: served answer differs: %s", target, d)
		}
		ls.wrong++
	}
}

// traceRoute replays route-cold: an untraced pass through a fresh server,
// then the same requests through another fresh server, each followed by the
// same query on a twin engine whose work is replayed. It also times a
// snapshot of the engine being written, loaded by copying and loaded by
// mapping, the restore paths of a restarting server.
func traceRoute(o options, d *dataset, tr *tracer, ls *layerStats, res *result) error {
	opts := serverOptions()
	var builds []float64
	open := func() (*pathhist.Engine, error) {
		t := time.Now()
		eng, err := pathhist.NewEngine(d.G, d.baseCopy(), opts)
		builds = append(builds, time.Since(t).Seconds())
		return eng, err
	}
	spec := coldSpecs(d)(0)
	if err := traceSnapshots(o, d, open, res); err != nil {
		return err
	}

	a, err := open()
	if err != nil {
		return err
	}
	srvA := ttserve.NewServer(a, ttserve.Config{})
	var untraced time.Duration
	n := 0
	for deadline := time.Now().Add(o.phase(untracedShare)); time.Now().Before(deadline); n++ {
		t := time.Now()
		if status, body := serve(srvA, http.MethodGet, spec(n).target(), nil); status != http.StatusOK {
			return fmt.Errorf("untraced %s: %d %s", spec(n).target(), status, body)
		}
		untraced += time.Since(t)
	}
	a.Close()
	a, srvA = nil, nil
	runtime.GC()

	b, err := open()
	if err != nil {
		return err
	}
	defer b.Close()
	twin, err := open()
	if err != nil {
		return err
	}
	defer twin.Close()
	srvB := ttserve.NewServer(b, ttserve.Config{})
	runtime.GC()
	var traced time.Duration
	for i := 0; i < n; i++ {
		q := spec(i)
		var status int
		var body []byte
		rid := tr.timed("ttserve.request", -1, i, func() { status, body = serve(srvB, http.MethodGet, q.target(), nil) })
		traced += tr.spans[rid].dur()
		want, err := traceTrip(tr, ls, twin.QueryEngine(), q, rid, i)
		if err != nil {
			return err
		}
		ls.checkServed(status, body, want, q.target())
	}
	res.Correct = ls.wrong == 0
	res.Attempted, res.Failed = n, ls.failed
	res.set("snt.build_s", median(builds))
	res.set("trace.overhead_frac", ratio(float64(traced), float64(untraced))-1)
	logf("replayed %d requests untraced in %.2fs and traced in %.2fs", n, untraced.Seconds(), traced.Seconds())
	return nil
}

// snapshotLoads is how many times each snapshot load is timed (median).
const snapshotLoads = 3

// traceSnapshots writes a snapshot of a freshly built engine, then loads it
// snapshotLoads times each by copying and by mapping.
func traceSnapshots(o options, d *dataset, open func() (*pathhist.Engine, error), res *result) error {
	eng, err := open()
	if err != nil {
		return err
	}
	snap := o.path("route.snt")
	t := time.Now()
	_, err = eng.SnapshotFile(snap)
	res.set("snapio.write_ms", ms(time.Since(t)))
	eng.Close()
	if err != nil {
		return err
	}
	opts := serverOptions()
	var copied, mapped []float64
	for range snapshotLoads {
		for _, load := range []struct {
			fn   func(*network.Graph, string, pathhist.Options) (*pathhist.Engine, error)
			into *[]float64
		}{{pathhist.LoadSnapshotFile, &copied}, {pathhist.LoadSnapshotFileMapped, &mapped}} {
			t := time.Now()
			e, err := load.fn(d.G, snap, opts)
			if err != nil {
				return err
			}
			*load.into = append(*load.into, ms(time.Since(t)))
			e.Close()
		}
	}
	res.set("snapio.load_copy_ms", median(copied))
	res.set("snapio.load_mapped_ms", median(mapped))
	return nil
}

// traceLive replays ingest-live: a two-shard cluster behind the sharded
// front (per-shard write-ahead logs, background compaction as in ttserve)
// and an unsharded, estimator-off engine receive the same batches; after
// each batch a few queries go through the front, through Cluster.Query and
// through the unsharded engine, whose work is replayed.
func traceLive(o options, d *dataset, tr *tracer, ls *layerStats, res *result) error {
	opts := serverOptions()
	var builds []float64
	stripes := sharded.Stripes(d.baseCopy(), 2)
	engines := make([]*pathhist.Engine, len(stripes))
	for k := range stripes {
		t := time.Now()
		eng, err := pathhist.NewEngine(d.G, stripes[k], sharded.ShardOptions(opts))
		if err != nil {
			return err
		}
		builds = append(builds, time.Since(t).Seconds())
		engines[k] = eng
	}
	cluster, err := sharded.New(d.G, engines, sharded.Config{Opts: opts})
	if err != nil {
		return err
	}
	defer cluster.Close()
	logs := make([]*wal.WAL, len(engines))
	shardSrvs := make([]*ttserve.Server, len(engines))
	for k, eng := range engines {
		if logs[k], err = wal.Open(o.path(fmt.Sprintf("shard-%d.wal", k))); err != nil {
			return err
		}
		defer logs[k].Close()
		shardSrvs[k] = ttserve.NewServer(eng, ttserve.Config{EnableExtend: true, WAL: logs[k]})
	}
	front, err := ttserve.NewShardedServer(cluster, shardSrvs, ttserve.Config{EnableExtend: true})
	if err != nil {
		return err
	}
	uopts := referenceOptions(true)
	uopts.AutoCompactPartitions = 0 // compacted explicitly, every liveCompactEvery batches
	t := time.Now()
	u, err := pathhist.NewEngine(d.G, d.baseCopy(), uopts)
	if err != nil {
		return err
	}
	defer u.Close()
	builds = append(builds, time.Since(t).Seconds())
	benchLog, err := wal.Open(o.path("bench.wal"))
	if err != nil {
		return err
	}
	defer benchLog.Close()

	spec := coldSpecs(d)(0)
	var untraced, traced time.Duration
	for i := 0; i < overheadQueries; i++ {
		t := time.Now()
		if status, body := serve(front, http.MethodGet, spec(i).target(), nil); status != http.StatusOK {
			return fmt.Errorf("untraced %s: %d %s", spec(i).target(), status, body)
		}
		untraced += time.Since(t)
	}
	dispatched := cluster.Counters().Snapshot()
	clusterQueries := 0
	traceQuery := func(i int) error {
		q := spec(i)
		var status int
		var body []byte
		rid := tr.timed("ttserve.request", -1, i, func() { status, body = serve(front, http.MethodGet, q.target(), nil) })
		if i < overheadQueries {
			traced += tr.spans[rid].dur()
		}
		var cr *sharded.Result
		var cerr error
		sid := tr.timed("sharded.query", rid, i, func() { cr, cerr = cluster.Query(context.Background(), q.query()) })
		clusterQueries += 2 // the front's and this one
		if cerr != nil {
			return cerr
		}
		want, err := traceTrip(tr, ls, u.QueryEngine(), q, sid, i)
		if err != nil {
			return err
		}
		ls.checkServed(status, body, want, q.target())
		subs := make([]subAnswer, len(cr.Subs))
		for j := range cr.Subs {
			s := &cr.Subs[j]
			subs[j] = subAnswer{Segments: len(s.Path), Samples: len(s.X), Mean: s.MeanX(), Fallback: s.Fallback}
		}
		if dd := histAnswer(cr.MeanSeconds, cr.Hist, subs).diff(want); dd != "" || cr.Partial {
			logf("%s: Cluster.Query answer differs (partial %v): %s", q.target(), cr.Partial, dd)
			ls.wrong++
		}
		return nil
	}
	next := 0
	for ; next < overheadQueries; next++ {
		if err := traceQuery(next); err != nil {
			return err
		}
	}

	total := d.Base.Len()
	pmax, batches := 0, 0
	for deadline := time.Now().Add(o.phase(1)); batches < len(d.Batches) && time.Now().Before(deadline); batches++ {
		raw := d.Batches[batches]
		var b *traj.Store
		var err error
		tr.timed("traj.decode", -1, -1, func() { b, err = traj.ReadStore(bytes.NewReader(raw)) })
		if err != nil {
			return err
		}
		tr.timed("wal.append", -1, -1, func() { err = benchLog.Append(uint64(total), b.Len(), raw) })
		if err != nil {
			return err
		}
		total += b.Len()
		var status int
		var body []byte
		tr.timed("sharded.extend", -1, -1, func() { status, body = serve(front, http.MethodPost, "/extend", raw) })
		if status != http.StatusOK {
			return fmt.Errorf("/extend batch %d: %d %s", batches, status, body)
		}
		tr.timed("snt.extend", -1, -1, func() { _, err = u.Extend(b) })
		if err != nil {
			return err
		}
		if (batches+1)%liveCompactEvery == 0 {
			tr.timed("snt.compact", -1, -1, func() { _, err = u.Compact() })
			if err != nil {
				return err
			}
		}
		var st shardedStats
		if err := decodeStatsz(front, &st); err != nil {
			return err
		}
		for _, s := range st.ShardStats {
			pmax = max(pmax, s.Partitions)
		}
		for j := 0; j < liveQueriesPerBatch; j++ {
			if err := traceQuery(next); err != nil {
				return err
			}
			next++
		}
	}
	after := cluster.Counters().Snapshot()
	groupCommits := int64(0)
	for _, l := range logs {
		groupCommits += l.Stats().GroupCommits
	}
	ws := benchLog.Stats()

	res.Correct = ls.wrong == 0
	res.Attempted, res.Failed = next+overheadQueries+batches, ls.failed
	res.set("snt.build_s", median(builds))
	res.set("sharded.query_us_p50", us(tr.durations("sharded.query").quantile(0.5)))
	res.set("sharded.query_us_p99", us(tr.durations("sharded.query").quantile(0.99)))
	res.set("sharded.gather_us_p50", us(tr.selfOf("sharded.query", tr.selfTimes()).quantile(0.5)))
	res.set("sharded.dispatches_per_query", ratio(float64(after.ShardDispatches-dispatched.ShardDispatches), float64(clusterQueries)))
	res.set("sharded.hedges_per_query", ratio(float64(after.HedgedDispatches-dispatched.HedgedDispatches), float64(clusterQueries)))
	res.set("sharded.extend_ms_p50", ms(tr.durations("sharded.extend").quantile(0.5)))
	res.set("wal.append_ms_p50", ms(tr.durations("wal.append").quantile(0.5)))
	res.set("wal.fsync_ms_per_append", ratio(float64(ws.FsyncNanos)/1e6, float64(ws.Appends)))
	res.set("wal.group_commits", float64(groupCommits))
	res.set("snt.extend_ms_p50", ms(tr.durations("snt.extend").quantile(0.5)))
	res.set("snt.compact_ms", ms(tr.durations("snt.compact").quantile(0.5)))
	res.set("snt.partitions_max", float64(pmax))
	res.set("traj.decode_ms_per_batch", ratio(ms(sum(tr.durations("traj.decode"))), float64(batches)))
	res.set("trace.overhead_frac", ratio(float64(traced), float64(untraced))-1)
	logf("replayed %d batches and %d queries; overhead measured on %d requests at version 0", batches, next, overheadQueries)
	return nil
}

// decodeStatsz reads the in-process front's /statsz.
func decodeStatsz(h http.Handler, v any) error {
	status, body := serve(h, http.MethodGet, "/statsz", nil)
	if status != http.StatusOK {
		return fmt.Errorf("/statsz: %d", status)
	}
	return json.Unmarshal(body, v)
}

func sum(ds durations) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// setQueryLayers sets the metrics of the layers every workload exercises.
func setQueryLayers(res *result, tr *tracer, ls *layerStats) {
	self := tr.selfTimes()
	n := float64(ls.queries)
	res.set("ttserve.request_us_p50", us(tr.durations("ttserve.request").quantile(0.5)))
	res.set("ttserve.request_us_p99", us(tr.durations("ttserve.request").quantile(0.99)))
	res.set("ttserve.self_us_p50", us(tr.selfOf("ttserve.request", self).quantile(0.5)))
	res.set("ttserve.response_bytes", ratio(float64(ls.responseBytes), float64(ls.responses)))
	res.set("query.trip_us_p50", us(tr.durations("query.trip").quantile(0.5)))
	res.set("query.trip_us_p99", us(tr.durations("query.trip").quantile(0.99)))
	res.set("query.self_us_p50", us(tr.selfOf("query.trip", self).quantile(0.5)))
	res.set("query.index_scans_per_query", ratio(float64(ls.indexScans), n))
	res.set("query.estimator_skips_per_query", ratio(float64(ls.skips), n))
	res.set("query.useful_scan_ratio", ratio(float64(ls.dataSubs), float64(ls.indexScans)))
	res.set("query.subcache_hit_ratio", ratio(float64(ls.cacheHits), float64(ls.cacheHits+ls.cacheMisses)))
	res.set("query.fullcache_hit_ratio", ratio(float64(ls.fullHits), n))
	res.set("query.allocs_per_query", ratio(float64(ls.mallocs), n))
	res.set("query.alloc_bytes_per_query", ratio(float64(ls.allocBytes), n))
	res.set("fmindex.search_us_p50", us(tr.durations("fmindex.search").quantile(0.5)))
	res.set("fmindex.searches_per_query", ratio(float64(ls.searches), n))
	res.set("temporal.scan_us_p50", us(tr.durations("temporal.scan").quantile(0.5)))
	res.set("temporal.candidates_per_sample", ratio(float64(ls.candidates), float64(ls.samples)))
	res.set("hist.build_us_p50", us(tr.durations("hist.build").quantile(0.5)))
	res.set("hist.convolve_us_p50", us(tr.durations("hist.convolve").quantile(0.5)))
	res.set("hist.convolutions_per_query", ratio(float64(ls.convolutions), n))
}
