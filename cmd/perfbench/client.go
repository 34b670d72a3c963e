package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dsmnc/serve"
)

// requestTimeout bounds one request; past it the request counts as a
// failed operation.
const requestTimeout = 60 * time.Second

// client is one closed-loop caller of dsmserved with its own keep-alive
// connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is one request of the closed loop: POST the cell, wait on
// /stream while the job is live, GET its result.
type outcome struct {
	cell cell
	fail string // "" on success, else the failure class
	// t0 is when the POST was sent, post when its answer was read, term
	// when the terminal SSE frame arrived (zero when the POST answer was
	// already terminal), get when the GET /result was sent and end when
	// the result body was in hand.
	t0, post, term, get, end time.Time
	status                   serve.Status // the job's terminal status
	bodyLen                  int
	body                     []byte // the result body, when kept
}

func (o *outcome) latency() time.Duration { return o.end.Sub(o.t0) }

// fresh reports whether the request waited for a run, so the status
// carries this request's queue and run intervals.
func (o *outcome) fresh() bool { return !o.term.IsZero() }

// failure classes of an operation.
func failOf(code int, err error, ok ...int) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case err != nil:
		return "transport"
	case code == http.StatusTooManyRequests:
		return "429"
	case code >= 500:
		return "5xx"
	}
	for _, c := range ok {
		if code == c {
			return ""
		}
	}
	return fmt.Sprintf("status-%d", code)
}

// call performs one HTTP exchange and reads the whole answer.
func (c *client) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	ans, err := io.ReadAll(resp.Body)
	return resp.StatusCode, ans, err
}

// do runs one request for cl; keep retains the result body.
func (c *client) do(cl cell, keep bool) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	o := outcome{cell: cl}
	body, err := json.Marshal(cl.request(servedScale))
	if err != nil {
		o.fail = "encode"
		return o
	}
	o.t0 = time.Now()
	code, ans, err := c.call(ctx, "POST", "/v1/jobs", body)
	o.post = time.Now()
	if o.fail = failOf(code, err, http.StatusOK, http.StatusAccepted); o.fail != "" {
		return o
	}
	if err := json.Unmarshal(ans, &o.status); err != nil {
		o.fail = "bad-status"
		return o
	}
	if !o.status.State.Terminal() {
		if o.status, o.term, err = c.stream(ctx, o.status.ID); err != nil {
			o.fail = failOf(0, err)
			return o
		}
	}
	if o.status.State != serve.StateDone {
		o.fail = "job-" + string(o.status.State)
		return o
	}
	o.get = time.Now()
	code, ans, err = c.call(ctx, "GET", "/v1/jobs/"+o.status.ID+"/result", nil)
	o.end = time.Now()
	if o.fail = failOf(code, err, http.StatusOK); o.fail != "" {
		return o
	}
	o.bodyLen = len(ans)
	if keep {
		o.body = ans
	}
	return o
}

// stream follows a job's server-sent events to its terminal status and
// returns it with the time the terminal frame arrived.
func (c *client) stream(ctx context.Context, id string) (serve.Status, time.Time, error) {
	var st serve.Status
	var at time.Time
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return st, at, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return st, at, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return st, at, fmt.Errorf("stream of %s answered %d", id, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok && at.IsZero() {
			var s serve.Status
			if jerr := json.Unmarshal(data, &s); jerr != nil {
				return st, at, jerr
			}
			if s.State.Terminal() {
				st, at = s, time.Now()
			}
		}
		if err == io.EOF && !at.IsZero() {
			return st, at, nil
		}
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("stream of %s ended before a terminal status", id)
			}
			return st, at, err
		}
	}
}

// drive runs the closed loop: each of n clients sends its next request
// as soon as the previous one completes, until next reports no more
// cells. Calls to next are serialized. Request i keeps its result body
// when keep(i) says so. With rec set, each request's spans are recorded
// as it completes. It returns the outcomes in request order and the
// time from the first request to the last one's end.
func drive(addr string, n int, next func() (cell, bool), keep func(i int) bool, rec *recorder) ([]outcome, time.Duration) {
	var mu sync.Mutex
	var outs []outcome
	start := time.Now()
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(addr)
			defer c.close()
			for {
				mu.Lock()
				cl, more := next()
				i := len(outs)
				if more {
					outs = append(outs, outcome{})
				}
				mu.Unlock()
				if !more {
					return
				}
				o := c.do(cl, keep(i))
				if rec != nil {
					recordRequest(rec, int64(i+1), &o)
				}
				mu.Lock()
				outs[i] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// recordRequest records the spans of one completed request: a client
// root; serve.submit for the POST; serve.notify for the stream wait,
// with the server's reported queue and run intervals as its children;
// and dsmserved.result_fetch for the GET.
func recordRequest(rec *recorder, req int64, o *outcome) {
	if o.fail != "" {
		return
	}
	root := rec.add(req, 0, "client", o.t0, o.end)
	rec.add(req, root, "serve.submit", o.t0, o.post)
	if o.fresh() {
		s := rec.add(req, root, "serve.notify", o.post, o.term)
		rec.add(req, s, "serve.queue", o.status.Queued, o.status.Started)
		rec.add(req, s, "serve.run", o.status.Started, o.status.Finished)
	}
	rec.add(req, root, "dsmserved.result_fetch", o.get, o.end)
}

// until wraps a cell source so it runs dry once d has passed.
func until(d time.Duration, next func() cell) func() (cell, bool) {
	deadline := time.Now().Add(d)
	return func() (cell, bool) {
		if !time.Now().Before(deadline) {
			return cell{}, false
		}
		return next(), true
	}
}

// servedScale is the workload scale of every served cell: test-scale
// cells take 3-150ms, so the serving stack's own costs are a large
// share of a request.
const servedScale = "test"
