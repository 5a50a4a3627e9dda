package main

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"pathhist"
	"pathhist/internal/network"
	"pathhist/internal/traj"
	"pathhist/internal/workload"
)

// Dataset and query-set shape. The dataset is the full ttgen preset
// (workload.DefaultConfig) generated in-process: the seed drives the
// drivers, their trips, the query sample and the schedules, on ttgen's
// default road network (network seed 42). Letting the seed also redraw the
// network changes the mean path length, and with it every latency, by
// about 15% from seed to seed; a fixed network keeps runs comparable. The
// server only ever sees the files written from the dataset.
const (
	// tailFraction of the trajectories (the latest days) is held out of
	// trajectories.bin and ingested live as /extend batches.
	tailFraction = 0.3
	// minBatchTrajectories is the smallest batch the tail is cut into;
	// batches end at quiescent cuts, so they are usually a little larger.
	minBatchTrajectories = 60
	// minQuerySegments is the shortest path a query asks about.
	minQuerySegments = 5
	// queryBeta and queryWindow are the paper's default sample-size
	// requirement and periodic window width.
	queryBeta   = 20
	queryWindow = 900
)

// predKind is a query's temporal predicate, mixed in the shares of predCycle.
type predKind int

const (
	predPeriodic predKind = iota // tod + window
	predUser                     // tod + window + user filter
	predFixed                    // from=0, until=start
)

// predCycle fixes the shares of the cold query mix (60% periodic, 20%
// user-filtered, 20% fixed) exactly in every five consecutive queries: the
// user-filtered queries relax down to single segments and make up the
// latency tail, so a drifting share would move the p99 by itself.
var predCycle = [...]predKind{predPeriodic, predUser, predPeriodic, predFixed, predPeriodic}

func (k predKind) String() string {
	return [...]string{"periodic", "user", "fixed"}[k]
}

// querySpec is one /query request, derived from an indexed trajectory
// (Section 5.2 of the paper): its path, asked around its start time.
type querySpec struct {
	Path  network.Path
	Kind  predKind
	Tod   int64 // seconds of day, minute resolution (periodic, user)
	User  traj.UserID
	Until int64 // fixed: the interval is [0, Until)
}

// target is the request URI (path and query string).
func (q querySpec) target() string {
	var b strings.Builder
	b.WriteString("/query?path=")
	for i, e := range q.Path {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(e)))
	}
	switch q.Kind {
	case predFixed:
		fmt.Fprintf(&b, "&from=0&until=%d", q.Until)
	default:
		fmt.Fprintf(&b, "&tod=%02d:%02d&window=%d", q.Tod/3600, q.Tod%3600/60, queryWindow)
		if q.Kind == predUser {
			b.WriteString("&user=" + strconv.Itoa(int(q.User)))
		}
	}
	fmt.Fprintf(&b, "&beta=%d", queryBeta)
	return b.String()
}

// query is the engine-level query the server derives from target().
func (q querySpec) query() pathhist.Query {
	pq := pathhist.Query{Path: q.Path, Beta: queryBeta}
	switch q.Kind {
	case predFixed:
		pq.From, pq.Until = 0, q.Until
	default:
		pq.Periodic, pq.Around, pq.WindowSeconds = true, q.Tod, queryWindow
		if q.Kind == predUser {
			pq.FilterUser, pq.User = true, q.User
		}
	}
	return pq
}

// dataset is everything generated from one seed.
type dataset struct {
	G          *network.Graph
	Trajs      int // generated trajectories, base and tail together
	Traversals int
	Base       *traj.Store
	// Batches are the held-out tail in traj wire format, in time order. Each
	// starts strictly after every earlier trajectory has ended (they are cut
	// at Store.QuiescentCuts), so each is admissible after its predecessors.
	Batches    [][]byte
	BatchTrajs []int
	// Cold is the shuffled cold query pool.
	Cold []querySpec
	// Unanswerable counts the queries choose left out of Cold.
	Unanswerable int
	traversals   []int // per edge, base and tail
}

func generate(seed int64) *dataset {
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	full := workload.BuildDataset(cfg)
	store := full.Store
	cuts := store.QuiescentCuts() // sorts by start
	d := &dataset{G: full.G, Trajs: store.Len(), Traversals: store.NumTraversals()}

	// Base ends at the first quiescent cut past the tail boundary; the tail
	// is cut into batches at later quiescent cuts.
	boundary := int(float64(store.Len()) * (1 - tailFraction))
	baseEnd := store.Len()
	var batchCuts []int
	for _, c := range cuts {
		switch {
		case c >= boundary && baseEnd == store.Len():
			baseEnd = c
		case baseEnd != store.Len() && c-last(batchCuts, baseEnd) >= minBatchTrajectories:
			batchCuts = append(batchCuts, c)
		}
	}
	d.Base = store.Slice(0, baseEnd)
	lo := baseEnd
	for _, hi := range append(batchCuts, store.Len()) {
		if hi-lo < minBatchTrajectories && len(d.Batches) > 0 {
			break // a short remainder at the very end is dropped
		}
		var buf bytes.Buffer
		if _, err := store.Slice(lo, hi).WriteTo(&buf); err != nil {
			panic(err) // writes to a bytes.Buffer cannot fail
		}
		d.Batches = append(d.Batches, buf.Bytes())
		d.BatchTrajs = append(d.BatchTrajs, hi-lo)
		lo = hi
	}

	rng := rand.New(rand.NewSource(seed))
	median := d.Base.MedianStart()
	for i := 0; i < d.Base.Len(); i++ {
		tr := d.Base.Get(traj.ID(i))
		if tr.StartTime() <= median || tr.Len() < minQuerySegments {
			continue
		}
		t0 := tr.StartTime()
		d.Cold = append(d.Cold, querySpec{Path: tr.Path(), Tod: t0 % 86400 / 60 * 60, User: tr.User, Until: t0})
	}
	rng.Shuffle(len(d.Cold), func(i, j int) { d.Cold[i], d.Cold[j] = d.Cold[j], d.Cold[i] })
	for i := range d.Cold {
		d.Cold[i].Kind = predCycle[i%len(predCycle)]
	}
	d.traversals = edgeTraversals(store, d.G.NumEdges())
	return d
}

// choose drops from the cold pool the queries ttserve cannot answer.
//
// When a query's convolved histogram mass overflows float64, ttserve's
// quantiles and bucket fractions become NaN, encoding the response fails
// after the 200 status has gone out, and the client reads an empty body.
// That is a defect of the server; the benchmark leaves such queries out so
// that no operation fails, and logs how many it left out. Only queries
// whose massBound reaches maxLogMass can overflow. With eng (an engine over
// the base, the only data version route-cold's queries see), those are asked and
// dropped if they do overflow; without it (ingest-live, whose answers span
// many data versions) they are all dropped.
func (d *dataset) choose(eng *pathhist.Engine) error {
	var risky []int
	for i, q := range d.Cold {
		if massBound(q.Path, d.traversals) >= maxLogMass {
			risky = append(risky, i)
		}
	}
	drop := make([]bool, len(d.Cold))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if eng == nil {
					drop[i] = true
					continue
				}
				res, err := eng.Query(d.Cold[i].query())
				if err != nil {
					mu.Lock()
					firstErr = cmp.Or(firstErr, fmt.Errorf("screening %s: %w", d.Cold[i].target(), err))
					mu.Unlock()
					continue
				}
				total := 0.0
				if res.Histogram != nil {
					total = res.Histogram.Total()
				}
				drop[i] = math.IsInf(total, 0) || math.IsNaN(total)
			}
		}()
	}
	for _, i := range risky {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	kept := d.Cold[:0]
	for i, q := range d.Cold {
		if !drop[i] {
			kept = append(kept, q)
		}
	}
	d.Unanswerable = len(d.Cold) - len(kept)
	d.Cold = kept
	logf("cold pool: %d queries; %d could overflow the histogram mass, %d of them left out as unanswerable",
		len(d.Cold), len(risky), d.Unanswerable)
	return nil
}

// maxLogMass is ln(math.MaxFloat64) less a margin for rounding.
var maxLogMass = math.Log(math.MaxFloat64) - 1

// edgeTraversals counts each edge's traversals in the store.
func edgeTraversals(s *traj.Store, edges int) []int {
	n := make([]int, edges)
	for _, tr := range s.All() {
		for _, e := range tr.Seq {
			n[e.Edge]++
		}
	}
	return n
}

// massBound bounds, at every data version a run can reach, ln of the mass
// of the histogram a query on p convolves. That mass is the product of the
// sub-queries' sample counts. Each sub-query starts at its own position of
// p and matches at most the traversals of the edge there (a speed-limit
// fallback contributes one sample), so the product is at most the product
// of max(traversals(e), 1) over p's positions, counted over the whole
// dataset, tail included.
func massBound(p network.Path, traversals []int) float64 {
	b := 0.0
	for _, e := range p {
		b += math.Log(float64(max(traversals[e], 1)))
	}
	return b
}

func last(xs []int, dflt int) int {
	if len(xs) == 0 {
		return dflt
	}
	return xs[len(xs)-1]
}

// decodeBatch returns a fresh store for batch k (Extend sorts and renumbers
// the store it is given, so every consumer decodes its own copy).
func (d *dataset) decodeBatch(k int) (*traj.Store, error) {
	return traj.ReadStore(bytes.NewReader(d.Batches[k]))
}

// writeFiles writes network.bin and the base trajectories.bin into dir, as
// ttgen would.
func (d *dataset) writeFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, wt := range map[string]func(*bufio.Writer) error{
		"network.bin":      func(b *bufio.Writer) error { _, err := d.G.WriteTo(b); return err },
		"trajectories.bin": func(b *bufio.Writer) error { _, err := d.Base.WriteTo(b); return err },
	} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		b := bufio.NewWriterSize(f, 1<<20)
		err = wt(b)
		if err == nil {
			err = b.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", name, err)
		}
	}
	return nil
}

// baseCopy returns a private copy of the base store (NewEngine sorts the
// store it is given).
func (d *dataset) baseCopy() *traj.Store { return d.Base.Slice(0, d.Base.Len()) }
