package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"pathhist"
	"pathhist/internal/hist"
	"pathhist/internal/query"
	"pathhist/internal/sharded"
)

// answer is the part of a /query response that is a function of the data
// alone: the point estimate, quantiles, emptiness, histogram buckets and
// per-sub-query shape. Effort counters (index_scans, cache_*,
// full_cache_hit) and the epoch are deliberately absent: they change with
// cache state and background compaction while the answer does not.
// The JSON tags are the /query wire names, so decoding a response into an
// answer drops every other field.
type answer struct {
	Mean    float64     `json:"mean_seconds"`
	P05     float64     `json:"p05_seconds"`
	P50     float64     `json:"p50_seconds"`
	P95     float64     `json:"p95_seconds"`
	Empty   bool        `json:"empty,omitempty"`
	Subs    []subAnswer `json:"sub_queries"`
	Buckets []bucket    `json:"histogram"`
}

type subAnswer struct {
	Segments int     `json:"segments"`
	Samples  int     `json:"samples"`
	Mean     float64 `json:"mean_seconds"`
	Fallback bool    `json:"speed_limit_fallback,omitempty"`
}

type bucket struct {
	From     int     `json:"from_seconds"`
	Width    int     `json:"width_seconds"`
	Fraction float64 `json:"fraction"`
}

// wireAnswer is a decoded /query body: the answer plus the sharded front's
// partial flag (a partial answer excludes data and is never correct).
type wireAnswer struct {
	answer
	Partial bool `json:"partial"`
}

func decodeAnswer(body []byte) (answer, error) {
	var w wireAnswer
	if err := json.Unmarshal(body, &w); err != nil {
		return answer{}, fmt.Errorf("decoding /query body: %w", err)
	}
	if w.Partial {
		return answer{}, fmt.Errorf("partial answer (shards missing)")
	}
	return w.answer, nil
}

// answerOf renders an engine result the way the /query endpoint documents
// its fields: quantiles and non-empty buckets of the convolved histogram,
// or only the empty flag when the histogram has no mass.
func answerOf(res *pathhist.Result) answer {
	subs := make([]subAnswer, len(res.Subs))
	for i, s := range res.Subs {
		subs[i] = subAnswer{Segments: len(s.Path), Samples: s.Samples, Mean: s.MeanTT, Fallback: s.Fallback}
	}
	return histAnswer(res.MeanSeconds, res.Histogram, subs)
}

// tripAnswer is answerOf for a query-engine result (pathhist.Engine.Query
// wraps TripQueryCtx and renames these fields).
func tripAnswer(r *query.Result) answer {
	subs := make([]subAnswer, len(r.Subs))
	for i := range r.Subs {
		s := &r.Subs[i]
		subs[i] = subAnswer{Segments: len(s.Path), Samples: len(s.X), Mean: s.MeanX(), Fallback: s.Fallback}
	}
	return histAnswer(r.PredictedMean(), r.Hist, subs)
}

func histAnswer(mean float64, h *hist.Histogram, subs []subAnswer) answer {
	a := answer{Mean: mean, Subs: subs}
	if h == nil || h.Total() == 0 {
		a.Empty = true
		return a
	}
	a.P05, a.P50, a.P95 = h.Quantile(0.05), h.Quantile(0.5), h.Quantile(0.95)
	w, total := h.BucketWidth(), h.Total()
	for b := h.Min() / w * w; b <= h.Max(); b += w {
		if m := h.Count(b); m > 0 {
			a.Buckets = append(a.Buckets, bucket{From: b, Width: w, Fraction: m / total})
		}
	}
	return a
}

// diff describes the first difference between two answers ("" if equal).
// Floats compare exactly: the engine is deterministic and JSON round-trips
// float64 values exactly.
func (a answer) diff(b answer) string {
	switch {
	case a.Mean != b.Mean:
		return fmt.Sprintf("mean %v != %v", a.Mean, b.Mean)
	case a.P05 != b.P05 || a.P50 != b.P50 || a.P95 != b.P95:
		return fmt.Sprintf("quantiles %v/%v/%v != %v/%v/%v", a.P05, a.P50, a.P95, b.P05, b.P50, b.P95)
	case a.Empty != b.Empty:
		return fmt.Sprintf("empty %v != %v", a.Empty, b.Empty)
	case len(a.Subs) != len(b.Subs):
		return fmt.Sprintf("%d sub-queries != %d", len(a.Subs), len(b.Subs))
	case len(a.Buckets) != len(b.Buckets):
		return fmt.Sprintf("%d buckets != %d", len(a.Buckets), len(b.Buckets))
	}
	for i := range a.Subs {
		if a.Subs[i] != b.Subs[i] {
			return fmt.Sprintf("sub-query %d: %+v != %+v", i, a.Subs[i], b.Subs[i])
		}
	}
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			return fmt.Sprintf("bucket %d: %+v != %+v", i, a.Buckets[i], b.Buckets[i])
		}
	}
	return ""
}

// serverOptions are the engine options cmd/ttserve runs with (its flag
// defaults).
func serverOptions() pathhist.Options {
	return pathhist.Options{
		Partition:             pathhist.ByZone,
		Estimator:             pathhist.EstimatorCSSFast,
		AutoCompactPartitions: 16,
		CompactInBackground:   true,
	}
}

// referenceOptions configures the reference engine for a serving mode.
// Single-engine ttserve runs the CSS-fast estimator, but -shards N>1 forces
// it off (sharded.ShardOptions), and the two modes answer differently — so
// each mode gets its own reference. Caches are off and execution is
// sequential (Workers 1), so the reference is Procedure 6 computed once,
// plainly. Compaction never changes an answer; the reference compacts
// inline and only every refCompactPartitions partitions, which keeps the
// post-run check of a live-ingest run short.
func referenceOptions(shardedMode bool) pathhist.Options {
	opts := serverOptions()
	if shardedMode {
		opts = sharded.ShardOptions(opts)
	}
	opts.DisableCache, opts.DisableFullResultCache = true, true
	opts.Workers = 1
	opts.AutoCompactPartitions = refCompactPartitions
	opts.CompactInBackground = false
	return opts
}

// refCompactPartitions is the reference engine's compaction trigger.
const refCompactPartitions = 64

// observation is one answer the server gave, with the range of data
// versions it may legitimately reflect: lo batches had been acknowledged
// before the request was sent, and at most hi had been sent when the reply
// arrived. Without concurrent ingest lo == hi.
type observation struct {
	spec   querySpec
	got    answer
	lo, hi int
}

// reference answers queries at one data version at a time and can move to
// the next version (by applying the next batch).
type reference interface {
	answer(q querySpec) (answer, error)
	advance() error
}

// checkResult reports which observations failed, with a sample diagnosis.
type checkResult struct {
	wrong      int
	bad        []bool // per observation
	firstWrong string
}

// checkObservations compares every observation with the reference. It
// visits versions in increasing order, asking the reference about version k
// only for observations whose range contains k and that no earlier version
// matched; an observation still unmatched after its hi version is wrong.
// Reference answers are computed by `workers` goroutines (the reference must
// be safe for concurrent answer calls) and shared between observations of
// the same query at the same version.
func checkObservations(obs []observation, ref reference, workers int) (checkResult, error) {
	res := checkResult{bad: make([]bool, len(obs))}
	order := make([]int, len(obs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return obs[order[a]].lo < obs[order[b]].lo })
	maxHi := 0
	for _, o := range obs {
		maxHi = max(maxHi, o.hi)
	}
	next := 0 // first index into order not yet activated
	var active []int
	for k := 0; k <= maxHi; k++ {
		for next < len(order) && obs[order[next]].lo <= k {
			active = append(active, order[next])
			next++
		}
		need := map[string]querySpec{}
		for _, i := range active {
			need[obs[i].spec.target()] = obs[i].spec
		}
		refs, err := answerAll(ref, need, workers)
		if err != nil {
			return res, fmt.Errorf("reference at version %d: %w", k, err)
		}
		kept := active[:0]
		for _, i := range active {
			o := &obs[i]
			switch d := o.got.diff(refs[o.spec.target()]); {
			case d == "":
				// matched at version k
			case k >= o.hi:
				res.wrong++
				res.bad[i] = true
				if res.firstWrong == "" {
					res.firstWrong = fmt.Sprintf("%s (versions %d..%d): %s", o.spec.target(), o.lo, o.hi, d)
				}
			default:
				kept = append(kept, i)
			}
		}
		active = kept
		if k < maxHi {
			if err := ref.advance(); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// answerAll computes the reference answer of every query in need.
func answerAll(ref reference, need map[string]querySpec, workers int) (map[string]answer, error) {
	specs := make(chan querySpec)
	out := make(map[string]answer, len(need))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range specs {
				a, err := ref.answer(q)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", q.target(), err)
				}
				out[q.target()] = a
				mu.Unlock()
			}
		}()
	}
	for _, q := range need {
		specs <- q
	}
	close(specs)
	wg.Wait()
	return out, firstErr
}

// engineRef is the in-process reference: a pathhist engine over the base
// trajectories, advanced by applying the dataset's batches in order.
type engineRef struct {
	eng  *pathhist.Engine
	data *dataset
	next int // batches applied so far
}

func newEngineRef(d *dataset, shardedMode bool) (*engineRef, error) {
	eng, err := pathhist.NewEngine(d.G, d.baseCopy(), referenceOptions(shardedMode))
	if err != nil {
		return nil, fmt.Errorf("building the reference engine: %w", err)
	}
	return &engineRef{eng: eng, data: d}, nil
}

func (r *engineRef) answer(q querySpec) (answer, error) {
	res, err := r.eng.Query(q.query())
	if err != nil {
		return answer{}, err
	}
	return answerOf(res), nil
}

// advance applies the next batch, checking it with ValidateExtend first.
func (r *engineRef) advance() error {
	if r.next >= len(r.data.Batches) {
		return fmt.Errorf("reference: no batch %d to apply", r.next)
	}
	b, err := r.data.decodeBatch(r.next)
	if err != nil {
		return fmt.Errorf("reference: decoding batch %d: %w", r.next, err)
	}
	if err := r.eng.ValidateExtend(b); err != nil {
		return fmt.Errorf("reference: batch %d is not admissible: %w", r.next, err)
	}
	if _, err := r.eng.Extend(b); err != nil {
		return fmt.Errorf("reference: applying batch %d: %w", r.next, err)
	}
	r.next++
	return nil
}

// digest is a SHA-256 over the answers printed in order (%v prints every
// float64 exactly, NaN and infinities included).
func digest(as []answer) string {
	h := sha256.New()
	for _, a := range as {
		fmt.Fprintf(h, "%+v\n", a)
	}
	return hex.EncodeToString(h.Sum(nil))
}
