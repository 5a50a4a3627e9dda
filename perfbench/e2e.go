package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"pathhist"
)

const (
	// setupRuns is how many server instances a run starts, one after
	// another; setup_s is the median of their start times.
	setupRuns = 3
	// epilogueBatches is how many batches route-cold posts back to back
	// after each instance's query phases: a fixed amount of work, so
	// extend_p50_ms and the memory the ingest adds compare like with like
	// from run to run.
	epilogueBatches = 100
	// liveBatchesPerSecond is ingest-live's offered write rate during its
	// open-loop phase. Each shard compacts in the background after every 15
	// batches it receives; at this rate that is every 7.5 seconds, so most
	// queries run beside no compaction and the median does not flip
	// between the two modes from run to run (at 10 batches/s compactions
	// kept a CPU busy about 40% of the time and the open-loop median sat on
	// the boundary).
	liveBatchesPerSecond = 4
	// rssInterval is how often the server's resident memory is read.
	rssInterval = 50 * time.Millisecond
)

// singleStats are the /statsz fields read from a single-engine server.
type singleStats struct {
	CacheHitRatio     float64 `json:"cache_hit_ratio"`
	FullCacheHitRatio float64 `json:"full_cache_hit_ratio"`
	CacheEntries      int     `json:"cache_entries"`
	FullCacheEntries  int     `json:"full_cache_entries"`
}

// shardedStats are the /statsz fields read from the sharded front.
type shardedStats struct {
	ShardStats []struct {
		Partitions  int `json:"partitions"`
		Compactions int `json:"compactions"`
	} `json:"shard_stats"`
	Counters struct {
		ShardDispatches  int64 `json:"shard_dispatches"`
		HedgedDispatches int64 `json:"hedged_dispatches"`
	} `json:"counters"`
}

// e2eRun is one end-to-end run: what it prepared and what it measured.
type e2eRun struct {
	o      options
	d      *dataset
	ref    *engineRef
	args   []string // ttserve flags, without -snapshot-dir and -addr
	setups []float64

	spec func(off int) func(i int) querySpec
	// open and closed hold each instance's open-loop phase and closed-loop
	// slice, with how the host's CPUs were used meanwhile.
	open       [][]queryResult
	openCPU    []string
	closed     [][]queryResult
	closedWall []time.Duration
	closedCPU  []string
	// extends are the batches posted in each ingest window: during the
	// open-loop phase (ingest-live), or in each instance's epilogue
	// (route-cold).
	extends [][]extendResult
	rss     []float64 // every instance's VmRSS readings, MiB
	hwm     float64   // the last instance's VmHWM at its end, MiB
	caches  string    // the last instance's cache figures
}

func runE2E(o options) (*result, error) {
	r := &e2eRun{o: o}
	if err := r.prepare(); err != nil {
		return nil, err
	}
	for i := range setupRuns {
		if err := r.instance(i); err != nil {
			return nil, err
		}
	}
	return r.evaluate()
}

// prepare generates the dataset, writes the server's files, builds the
// reference and proves every batch admissible.
func (r *e2eRun) prepare() error {
	began := time.Now()
	r.d = generate(r.o.seed)
	d := r.d
	tail := 0
	for _, n := range d.BatchTrajs {
		tail += n
	}
	logf("dataset: %d trajectories, %d traversals, %d edges; base %d trajectories, tail %d in %d batches; %d candidate cold queries",
		d.Trajs, d.Traversals, d.G.NumEdges(), d.Base.Len(), tail, len(d.Batches), len(d.Cold))
	dataDir := r.o.path("data")
	if err := d.writeFiles(dataDir); err != nil {
		return err
	}
	var err error
	if r.ref, err = newEngineRef(d, r.o.wl.sharded); err != nil {
		return err
	}
	if err := checkBatches(d, r.ref.eng); err != nil {
		return err
	}
	screen := r.ref.eng
	if r.o.wl.sharded {
		screen = nil
	}
	if err := d.choose(screen); err != nil {
		return err
	}
	r.spec = coldSpecs(d)
	r.args = []string{"-data", dataDir, "-enable-extend"}
	switch {
	case r.o.wl.sharded:
		r.args = append(r.args, "-shards", "2")
	}
	logf("prepared in %.1fs", time.Since(began).Seconds())
	return nil
}

// instance starts ttserve on a fresh snapshot directory, timing spawn to
// ready, runs this instance's share of the measurement and stops it. The
// run starts setupRuns instances one after another and reports the median
// over them of setup_s, query_qps and, on route-cold, query_p50_ms; the same
// work measured on one instance moved by 15-25% from one instance to the
// next within a run, and a single window carries whatever the host did in
// it.
func (r *e2eRun) instance(i int) error {
	dir := r.o.path(fmt.Sprintf("serve-%d", i))
	srv, took, err := startServer(r.o.ttserve, slices.Concat(r.args, []string{"-snapshot-dir", dir}), dir+".log")
	if err != nil {
		return err
	}
	defer srv.stop()
	r.setups = append(r.setups, took.Seconds())
	return r.measure(srv, i == setupRuns-1)
}

// openShare is the share of the measured seconds one instance's open loop
// runs: route-cold splits the open-loop phase over the instances, ingest-live
// runs all of it on the last one.
func (r *e2eRun) openShare() float64 {
	if r.o.wl.sharded {
		return r.o.wl.open
	}
	return r.o.wl.open / setupRuns
}

// measure runs one instance's share, in this order, with the server's
// resident memory sampled throughout:
//
//   - a closed-loop slice on one connection, before any batch reaches the
//     instance. With nproc (2) connections the load generator and the
//     server fought over the same two CPUs, and query_qps spread 0.23 over
//     five seeds against 0.09 with one. The slice's requests follow the
//     open loop's in the request sequence, so it leaves no answers in the
//     cache for the open loop.
//   - route-cold: the open loop, then the tail's first epilogueBatches back
//     to back, where they cannot disturb the queries.
//   - ingest-live, last instance only: the open loop while the writer
//     posts the tail at liveBatchesPerSecond (back to back the server would
//     absorb all of it in about two seconds).
func (r *e2eRun) measure(srv *server, last bool) error {
	o, d := r.o, r.d
	resumeGC := pauseGC()
	defer resumeGC()
	rssDone := make(chan struct{})
	rss := srv.sampleRSS(rssInterval, rssDone)
	defer func() {
		close(rssDone)
		r.rss = append(r.rss, <-rss...)
	}()

	c := newConn(srv.base)
	defer c.close()
	spec := r.spec(int(o.wl.rate * o.phase(r.openShare()).Seconds()))
	cpu := readCPU()
	rs, wall := closedLoop(c, o.phase(o.wl.closed/setupRuns), spec)
	r.closed = append(r.closed, rs)
	r.closedWall = append(r.closedWall, wall)
	r.closedCPU = append(r.closedCPU, readCPU().since(cpu))
	if o.wl.sharded && !last {
		return nil
	}

	conns := newConns(srv.base, connsFor(o.wl, runtime.NumCPU()))
	defer closeConns(conns)
	prog := &progress{}
	written := make(chan []extendResult, 1)
	stop := make(chan struct{})
	cpu = readCPU()
	if o.wl.sharded {
		writer := newConn(srv.base) // the last connection nproc allows
		defer writer.close()
		interval := time.Second / liveBatchesPerSecond
		go func() { written <- writeBatches(writer, d, interval, len(d.Batches), stop, prog) }()
	}
	r.open = append(r.open, openLoop(conns, o.wl.rate, o.phase(r.openShare()), r.spec(0), prog))
	if o.wl.sharded {
		close(stop)
		r.extends = append(r.extends, <-written)
	}
	r.openCPU = append(r.openCPU, readCPU().since(cpu))
	var err error
	if last {
		if r.caches, err = cacheSummary(srv, o.wl.sharded); err != nil {
			return err
		}
	}
	if !o.wl.sharded {
		r.extends = append(r.extends, writeBatches(conns[0], d, 0, epilogueBatches, nil, prog))
	}
	if last {
		r.hwm, err = srv.memMiB("VmHWM")
	}
	return err
}

// evaluate checks every answer and computes the metrics.
func (r *e2eRun) evaluate() (*result, error) {
	o := r.o
	res := &result{Correct: true, Metrics: map[string]metric{}}
	open := slices.Concat(r.open...)
	queries := slices.Concat(append([][]queryResult{open}, r.closed...)...)
	var obs []observation
	var obsOf []int // query index of each observation
	for i := range queries {
		q := &queries[i]
		a, err := decodeAnswer(q.body)
		if !q.ok() || err != nil {
			if res.Failed == 0 {
				logf("first failed query %s: status %d, %v %v: %s", q.spec.target(), q.status, q.err, err, bytes.TrimSpace(q.body))
			}
			res.Failed++
			continue
		}
		obs = append(obs, observation{spec: q.spec, got: a, lo: q.lo, hi: q.hi})
		obsOf = append(obsOf, i)
	}
	checkStart := time.Now()
	chk, err := checkObservations(obs, r.ref, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	r.ref = nil // the digest builds its own reference; let this one go
	logf("checked %d answers against the reference in %.1fs: %d wrong", len(obs), time.Since(checkStart).Seconds(), chk.wrong)
	if chk.wrong > 0 {
		res.Correct = false
		logf("first wrong answer: %s", chk.firstWrong)
	}
	if o.seed == defaultSeed {
		ok, err := checkDigest(o, r.d)
		if err != nil {
			return nil, err
		}
		res.Correct = res.Correct && ok
	}
	for _, w := range r.extends {
		for _, e := range w {
			if !e.ok() {
				res.Failed++
				logf("extend failed: %v", e.err)
			}
		}
		res.Attempted += len(w)
	}
	res.Attempted += len(queries)

	var openLat, lag durations // every instance's, for the diagnostics
	var openP50 []float64
	for _, rs := range r.open {
		var lat durations
		for i := range rs {
			if rs[i].ok() {
				lat = append(lat, rs[i].latency())
			}
			lag = append(lag, max(rs[i].sent.Sub(rs[i].due), 0))
		}
		openP50 = append(openP50, ms(lat.quantile(0.5)))
		openLat = append(openLat, lat...)
	}
	// Each slice's correct answers per second; the queries of slice k
	// follow the open loop's and the earlier slices' in queries.
	correct := make([]int, len(queries)) // 1 if answered and checked out
	for oi, qi := range obsOf {
		if !chk.bad[oi] {
			correct[qi] = 1
		}
	}
	var sliceQPS []float64
	at := len(open)
	for k, rs := range r.closed {
		n := 0
		for _, c := range correct[at : at+len(rs)] {
			n += c
		}
		at += len(rs)
		sliceQPS = append(sliceQPS, float64(n)/r.closedWall[k].Seconds())
	}
	qps := median(sliceQPS)
	extLat, ackedTrajs, ingestWall := ingestStats(r.extends)
	if len(extLat) == 0 || len(openLat) == 0 || len(r.rss) == 0 {
		return nil, fmt.Errorf("run produced no successful extends or queries (%d failed operations)", res.Failed)
	}
	res.set("setup_s", median(r.setups))
	res.set("query_p50_ms", median(openP50))
	res.set("query_qps", qps)
	res.set("extend_p50_ms", ms(extLat.quantile(0.50)))
	res.set("server_rss_mib", median(r.rss))

	logf("set-up runs (s): %.3f", r.setups)
	for k := range r.open {
		logf("open loop on instance %d: p50 %.3f ms; host CPU %s", setupRuns-len(r.open)+k, openP50[k], r.openCPU[k])
	}
	logf("open loop, all instances: %d requests at %.0f/s offered, %d answered; p25/p50/p75 %.3f/%.3f/%.3f ms, p99 %.3f ms (%d samples beyond)",
		len(open), o.wl.rate, len(openLat), ms(openLat.quantile(0.25)), ms(openLat.quantile(0.5)), ms(openLat.quantile(0.75)),
		ms(openLat.quantile(0.99)), len(openLat)/100)
	logf("generator lag behind schedule: p50 %.3f ms, p99 %.3f ms, max %.3f ms",
		ms(lag.quantile(0.5)), ms(lag.quantile(0.99)), ms(lag.quantile(1)))
	for k, rs := range r.closed {
		logf("closed loop on instance %d: %d requests in %.2fs on 1 connection, %.1f correct answers/s; host CPU %s",
			k, len(rs), r.closedWall[k].Seconds(), sliceQPS[k], r.closedCPU[k])
	}
	logf("ingest: %d batches acknowledged in %d windows, extend p25/p50/p75 %.3f/%.3f/%.3f ms; %d trajectories in %.2fs (%.0f/s)",
		len(extLat), len(r.extends), ms(extLat.quantile(0.25)), ms(extLat.quantile(0.5)), ms(extLat.quantile(0.75)),
		ackedTrajs, ingestWall.Seconds(), float64(ackedTrajs)/ingestWall.Seconds())
	logf("caches: %s", r.caches)
	logf("server VmRSS over %d readings: min %.1f, median %.1f, max %.1f MiB; VmHWM at the end %.1f MiB",
		len(r.rss), slices.Min(r.rss), median(r.rss), slices.Max(r.rss), r.hwm)
	logf("failed %d of %d operations", res.Failed, res.Attempted)
	return res, nil
}

// connsFor is how many query connections a workload's open loop uses.
func connsFor(w workloadSpec, nproc int) int {
	if w.sharded {
		return max(nproc-1, 1) // the ingest writer holds the last one
	}
	return nproc
}

func newConns(base string, n int) []*conn {
	cs := make([]*conn, n)
	for i := range cs {
		cs[i] = newConn(base)
	}
	return cs
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

// coldSpecs walks the shuffled cold pool (wrapping around it): spec(off)(i)
// is the off+i-th request.
func coldSpecs(d *dataset) func(off int) func(i int) querySpec {
	return func(off int) func(int) querySpec {
		return func(i int) querySpec { return d.Cold[(off+i)%len(d.Cold)] }
	}
}

// checkBatches proves every batch admissible before the run: each passes
// the reference's ValidateExtend against the base (edge ids, trajectory
// invariants, starts after the base), and each starts after every earlier
// batch has ended — together exactly what ValidateExtend checks when the
// batch arrives after its predecessors.
func checkBatches(d *dataset, eng *pathhist.Engine) error {
	var end int64
	for k := range d.Batches {
		b, err := d.decodeBatch(k)
		if err != nil {
			return fmt.Errorf("batch %d: %w", k, err)
		}
		if err := eng.ValidateExtend(b); err != nil {
			return fmt.Errorf("batch %d is not admissible: %w", k, err)
		}
		lo, hi := b.TimeRange()
		if k > 0 && lo <= end {
			return fmt.Errorf("batch %d starts at %d, before batch %d ends at %d", k, lo, k-1, end)
		}
		end = max(end, hi)
	}
	return nil
}

// ingestStats summarises the acknowledged extends of every window: their
// latencies, the trajectories they carried, and the summed wall time from
// each window's first send to its last acknowledgement.
func ingestStats(windows [][]extendResult) (lat durations, trajs int, wall time.Duration) {
	for _, rs := range windows {
		for i := range rs {
			if rs[i].ok() {
				lat = append(lat, rs[i].done.Sub(rs[i].sent))
				trajs += rs[i].trajs
			}
		}
		if len(rs) > 0 {
			wall += rs[len(rs)-1].done.Sub(rs[0].sent)
		}
	}
	return lat, trajs, wall
}

// gcHeadroom is how far the benchmark's heap may grow while its collector is
// paused for the measured phases.
const gcHeadroom = 1 << 30

// pauseGC stops the benchmark's own garbage collector (up to gcHeadroom of
// growth) and returns the function that resumes it: a collection of the
// reference engine's heap mid-phase would take CPU from the server.
func pauseGC() func() {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	pct := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(int64(before.HeapAlloc) + gcHeadroom)
	return func() {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		logf("benchmark during the phases: %d MiB allocated, %d collections",
			(after.TotalAlloc-before.TotalAlloc)>>20, after.NumGC-before.NumGC)
		debug.SetGCPercent(pct)
		debug.SetMemoryLimit(limit)
	}
}

// cacheSummary reads the server's cache effectiveness from /statsz.
func cacheSummary(srv *server, shardedMode bool) (string, error) {
	if shardedMode {
		var st shardedStats
		if err := srv.statsz(&st); err != nil {
			return "", err
		}
		return fmt.Sprintf("shard caches are off; %d shard dispatches, %d hedged; per-shard partitions/compactions %+v",
			st.Counters.ShardDispatches, st.Counters.HedgedDispatches, st.ShardStats), nil
	}
	var st singleStats
	if err := srv.statsz(&st); err != nil {
		return "", err
	}
	return fmt.Sprintf("sub-result cache hit ratio %.3f (%d entries), full-result cache %.3f (%d entries)",
		st.CacheHitRatio, st.CacheEntries, st.FullCacheHitRatio, st.FullCacheEntries), nil
}

// cpuTicks are the machine-wide counters of /proc/stat's cpu line.
type cpuTicks struct{ busy, idle, steal float64 }

func readCPU() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	f := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	var v [8]float64
	for i := range v {
		if i+1 < len(f) {
			v[i], _ = strconv.ParseFloat(f[i+1], 64)
		}
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], idle: v[3] + v[4], steal: v[7]}
}

// since describes how the machine's CPUs were used between two readings;
// steal is time the hypervisor gave to other guests.
func (t cpuTicks) since(t0 cpuTicks) string {
	busy, idle, steal := t.busy-t0.busy, t.idle-t0.idle, t.steal-t0.steal
	total := busy + idle + steal
	return fmt.Sprintf("busy %.0f%%, idle %.0f%%, stolen %.1f%%", 100*ratio(busy, total), 100*ratio(idle, total), 100*ratio(steal, total))
}
