package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"

	"pathhist"
	"pathhist/internal/traj"
	"pathhist/internal/ttserve"
	"pathhist/internal/workload"
)

// smallServed builds a small dataset, a serving engine configured like
// single-engine ttserve (caches on) behind the real handler, and the
// reference for that mode. It returns queries with their served bodies.
func smallServed(t *testing.T) ([]querySpec, [][]byte, *engineRef) {
	t.Helper()
	ds := workload.BuildDataset(workload.SmallConfig())
	d := &dataset{G: ds.G, Base: ds.Store.SortByStart()}
	eng, err := pathhist.NewEngine(d.G, d.baseCopy(), serverOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ref, err := newEngineRef(d, false)
	if err != nil {
		t.Fatal(err)
	}
	srv := ttserve.NewServer(eng, ttserve.Config{})
	var specs []querySpec
	var bodies [][]byte
	for i := 0; i < d.Base.Len() && len(specs) < 60; i += 37 {
		tr := d.Base.Get(traj.ID(i))
		if tr.Len() < 3 {
			continue
		}
		q := querySpec{Path: tr.Path(), Kind: predKind(len(specs) % 3), Tod: tr.StartTime() % 86400 / 60 * 60, User: tr.User, Until: tr.StartTime()}
		// Twice: the second answer comes from the full-result cache, with
		// different counters but the same answer.
		for rep := 0; rep < 2; rep++ {
			status, body := serve(srv, http.MethodGet, q.target(), nil)
			if status != http.StatusOK {
				t.Fatalf("%s: %d %s", q.target(), status, body)
			}
			specs = append(specs, q)
			bodies = append(bodies, body)
		}
	}
	return specs, bodies, ref
}

// edit rewrites a served JSON body.
func edit(t *testing.T, body []byte, fn func(m map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	fn(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func observe(t *testing.T, specs []querySpec, bodies [][]byte) []observation {
	t.Helper()
	obs := make([]observation, len(specs))
	for i := range specs {
		a, err := decodeAnswer(bodies[i])
		if err != nil {
			t.Fatal(err)
		}
		obs[i] = observation{spec: specs[i], got: a}
	}
	return obs
}

func TestServedAnswersMatchReference(t *testing.T) {
	specs, bodies, ref := smallServed(t)
	chk, err := checkObservations(observe(t, specs, bodies), ref, 2)
	if err != nil {
		t.Fatal(err)
	}
	if chk.wrong != 0 {
		t.Fatalf("%d of %d served answers differ from the reference: %s", chk.wrong, len(specs), chk.firstWrong)
	}
}

func TestCheckFlagsBadAnswersAndIgnoresCounters(t *testing.T) {
	specs, bodies, ref := smallServed(t)
	pick := -1 // a served answer with buckets and sub-queries
	for i, b := range bodies {
		if a, _ := decodeAnswer(b); len(a.Buckets) > 1 && len(a.Subs) > 0 {
			pick = i
			break
		}
	}
	if pick < 0 {
		t.Fatal("no served answer with a histogram")
	}
	cases := []struct {
		name  string
		edit  func(m map[string]any)
		wrong bool
	}{
		{"perturbed bucket", func(m map[string]any) {
			b := m["histogram"].([]any)[0].(map[string]any)
			b["fraction"] = b["fraction"].(float64) + 1e-9
		}, true},
		{"wrong sample count", func(m map[string]any) {
			s := m["sub_queries"].([]any)[0].(map[string]any)
			s["samples"] = s["samples"].(float64) + 1
		}, true},
		{"missing bucket", func(m map[string]any) {
			m["histogram"] = m["histogram"].([]any)[1:]
		}, true},
		{"counters and epoch only", func(m map[string]any) {
			m["index_scans"] = 999
			m["cache_hits"] = 7
			m["cache_misses"] = 3
			m["cache_invalidations"] = 5
			m["full_cache_hit"] = true
			m["epoch"] = 42
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			edited := edit(t, bodies[pick], c.edit)
			chk, err := checkObservations(observe(t, specs[pick:pick+1], [][]byte{edited}), ref, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := chk.wrong == 1; got != c.wrong {
				t.Fatalf("flagged = %v, want %v (%s)", got, c.wrong, chk.firstWrong)
			}
		})
	}
}

// versionRef is a reference whose answer at version k has mean k.
type versionRef struct {
	version  int
	advances int
}

func (r *versionRef) answer(q querySpec) (answer, error) {
	return answer{Mean: float64(r.version), Subs: []subAnswer{{Segments: len(q.Path)}}}, nil
}

func (r *versionRef) advance() error { r.version++; r.advances++; return nil }

func TestCheckVersionRanges(t *testing.T) {
	q := querySpec{Path: pathhist.Path{1, 2, 3}}
	at := func(k int) answer { return answer{Mean: float64(k), Subs: []subAnswer{{Segments: 3}}} }
	obs := []observation{
		{spec: q, got: at(0), lo: 0, hi: 0}, // no ingest in flight
		{spec: q, got: at(2), lo: 1, hi: 3}, // any version in range is right
		{spec: q, got: at(3), lo: 0, hi: 1}, // newer than anything sent: wrong version
		{spec: q, got: at(1), lo: 2, hi: 2}, // older than what was acknowledged
		{spec: q, got: at(4), lo: 4, hi: 4},
	}
	ref := &versionRef{}
	chk, err := checkObservations(obs, ref, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, true, true, false}
	for i := range want {
		if chk.bad[i] != want[i] {
			t.Errorf("observation %d (answer at %v, versions %d..%d): flagged %v, want %v",
				i, obs[i].got.Mean, obs[i].lo, obs[i].hi, chk.bad[i], want[i])
		}
	}
	if chk.wrong != 2 || ref.advances != 4 {
		t.Fatalf("wrong %d, advances %d; want 2 and 4", chk.wrong, ref.advances)
	}
}

func TestReferenceOptionsFollowServingMode(t *testing.T) {
	single, shard := referenceOptions(false), referenceOptions(true)
	if single.Estimator != serverOptions().Estimator {
		t.Errorf("single-engine reference estimator %v, server runs %v", single.Estimator, serverOptions().Estimator)
	}
	if shard.Estimator != pathhist.EstimatorOff {
		t.Errorf("sharded reference estimator %v, want off (sharded.ShardOptions)", shard.Estimator)
	}
	for _, o := range []pathhist.Options{single, shard} {
		if !o.DisableCache || !o.DisableFullResultCache || o.Workers != 1 {
			t.Errorf("reference must run uncached and sequential: %+v", o)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the reported metrics in
// step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(declared, ",") {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	list := func(ds []metricDef) string {
		var s []string
		for _, d := range ds {
			s = append(s, d.name+":"+d.unit)
		}
		return strings.Join(s, ",")
	}
	decl := func(ms []struct{ Name, Unit string }) string {
		var s []string
		for _, m := range ms {
			s = append(s, fmt.Sprintf("%s:%s", m.Name, m.Unit))
		}
		return strings.Join(s, ",")
	}
	if list(endToEnd) != decl(b.EndToEnd) {
		t.Errorf("end-to-end metrics\n%s\nBENCHMARK.json\n%s", list(endToEnd), decl(b.EndToEnd))
	}
	if list(perLayer) != decl(b.PerLayer) {
		t.Errorf("per-layer metrics\n%s\nBENCHMARK.json\n%s", list(perLayer), decl(b.PerLayer))
	}
}
