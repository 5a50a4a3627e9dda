package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// requestTimeout bounds a single request; a server that needs longer has
// failed the run anyway.
const requestTimeout = 30 * time.Second

// conn is one load-generating connection: a client whose transport holds at
// most one TCP connection, so the number of conns is exactly the number of
// connections the benchmark opens to the server.
type conn struct {
	client *http.Client
	base   string
	buf    bytes.Buffer // reused to read bodies, so only the kept copy is allocated
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and reads the whole response body.
func (c *conn) do(method, target string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+target, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, bytes.Clone(c.buf.Bytes()), err
}

// progress counts ingested batches while queries run: a query sent after
// acked batches were acknowledged and answered before more than sent
// batches were sent reflects a data version in [acked, sent].
type progress struct{ sent, acked atomic.Int64 }

// queryResult is one /query request.
type queryResult struct {
	spec   querySpec
	due    time.Time // scheduled send time (open loop) or send time
	sent   time.Time
	done   time.Time
	status int
	body   []byte
	err    error
	lo, hi int
}

func (r *queryResult) ok() bool { return r.err == nil && r.status == http.StatusOK }

// latency is measured from the scheduled send time, so a stall also
// charges the wait it imposes on the requests queued behind it.
func (r *queryResult) latency() time.Duration { return r.done.Sub(r.due) }

func (c *conn) query(r *queryResult, prog *progress) {
	if prog != nil {
		r.lo = int(prog.acked.Load())
	}
	r.sent = time.Now()
	r.status, r.body, r.err = c.do(http.MethodGet, r.spec.target(), nil)
	r.done = time.Now()
	if prog != nil {
		r.hi = int(prog.sent.Load())
	}
}

// openLoop issues rate requests per second for dur on a fixed schedule,
// regardless of how fast the server answers. Each conn claims the next
// scheduled request in order and waits for its due time if early, so at
// most len(conns) requests are in flight; when all are busy, requests fall
// behind schedule and their latency (from the due time) shows it.
func openLoop(conns []*conn, rate float64, dur time.Duration, spec func(i int) querySpec, prog *progress) []queryResult {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]queryResult, n)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := &out[i]
				r.spec = spec(i)
				r.due = start.Add(time.Duration(i) * interval)
				sleepUntil(r.due)
				c.query(r, prog)
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop sends requests on c one after another for dur, each as soon
// as the previous one completes; spec(i) is the i-th request. It returns
// the results and the phase's wall time.
func closedLoop(c *conn, dur time.Duration, spec func(i int) querySpec) ([]queryResult, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	var out []queryResult
	for i := 0; time.Now().Before(deadline); i++ {
		r := queryResult{spec: spec(i)}
		c.query(&r, nil)
		r.due = r.sent
		out = append(out, r)
	}
	return out, time.Since(start)
}

// extendResult is one POST /extend.
type extendResult struct {
	trajs      int
	sent, done time.Time
	status     int
	err        error
}

func (r *extendResult) ok() bool { return r.err == nil && r.status == http.StatusOK }

// sleepUntil blocks until t. The Go runtime's timers wake up to a
// millisecond late on Linux, which would add most of a millisecond of the
// generator's own making to every open-loop latency; a raw nanosleep wakes
// within tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// writeBatches POSTs the dataset's first n batches in order on one
// connection, until stop is closed or the batches run out. With interval > 0
// batch k is due interval*k after the start (an open-loop schedule);
// otherwise batches go back to back. It stops at the first refused batch:
// later versions would no longer line up with the reference's.
func writeBatches(c *conn, d *dataset, interval time.Duration, n int, stop <-chan struct{}, prog *progress) []extendResult {
	var out []extendResult
	start := time.Now()
	for k := range min(n, len(d.Batches)) {
		if interval > 0 {
			sleepUntil(start.Add(time.Duration(k) * interval))
		}
		select {
		case <-stop:
			return out
		default:
		}
		r := extendResult{trajs: d.BatchTrajs[k]}
		prog.sent.Add(1)
		r.sent = time.Now()
		var body []byte
		r.status, body, r.err = c.do(http.MethodPost, "/extend", d.Batches[k])
		r.done = time.Now()
		out = append(out, r)
		if !r.ok() {
			if r.err == nil {
				r.err = fmt.Errorf("/extend %d: %s", r.status, bytes.TrimSpace(body))
				out[len(out)-1] = r
			}
			return out
		}
		prog.acked.Add(1)
	}
	return out
}
