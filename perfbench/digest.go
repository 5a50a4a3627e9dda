package main

import "fmt"

// The answer digest pins the reference's answers at the default seed. The
// reference runs the code under test, so a change that alters answers on
// the server and in the reference alike would pass the comparison; the
// digest catches it. Other seeds rely on the comparison alone.
const (
	// digestQueries is how many cold-pool queries enter the digest.
	digestQueries = 100
	// digestVersion is the data version (batches applied) ingest-live's
	// digest is also taken at.
	digestVersion = 8
)

// pinnedDigests are digestAnswers at defaultSeed, per workload. When an
// answer change is intended, rerun at the default seed and copy the
// reported digest here.
var pinnedDigests = map[string]string{
	"route-cold":  "42d5d5e9028dc5be67f3988c60316d337b2f5b241e0eee0e6997eadbe42d2300",
	"ingest-live": "cebdabea599d0853d8e4404b344856504f3a8aae680cddf26baf011d3750c91b",
}

// digestAnswers digests the reference's answers to the workload's fixed
// digest set: the first cold queries (route-cold), or the first cold
// queries before and after digestVersion batches (ingest-live, which
// exercises Extend).
func digestAnswers(o options, d *dataset) (string, error) {
	ref, err := newEngineRef(d, o.wl.sharded)
	if err != nil {
		return "", err
	}
	set := d.Cold[:min(digestQueries, len(d.Cold))]
	var as []answer
	collect := func() error {
		for _, q := range set {
			a, err := ref.answer(q)
			if err != nil {
				return fmt.Errorf("digest query %s: %w", q.target(), err)
			}
			as = append(as, a)
		}
		return nil
	}
	if err := collect(); err != nil {
		return "", err
	}
	if o.wl.sharded {
		for ref.next < digestVersion {
			if err := ref.advance(); err != nil {
				return "", err
			}
		}
		if err := collect(); err != nil {
			return "", err
		}
	}
	return digest(as), nil
}

// checkDigest compares the digest with the pinned one.
func checkDigest(o options, d *dataset) (bool, error) {
	got, err := digestAnswers(o, d)
	if err != nil {
		return false, err
	}
	if want := pinnedDigests[o.wl.name]; got != want {
		logf("answer digest at seed %d is %s, pinned %q: the answers changed", o.seed, got, want)
		return false, nil
	}
	logf("answer digest matches the pinned one")
	return true, nil
}
