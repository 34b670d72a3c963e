package main

// The remote Submitter: cells run on a dsmserved as ordinary /v1/jobs
// jobs, so they coalesce with other clients' submissions, are journaled
// in the server's ledger and survive a server restart.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"dsmnc"
	"dsmnc/serve"
)

// remote is an explore.Submitter over a dsmserved; every request,
// Submit's and Result's too, carries ctx, the command's signal context.
type remote struct {
	ctx  context.Context
	base string // http://host:port, no trailing slash
}

// newRemote accepts a base URL or a bare host:port, the form dsmserved
// prints when it starts.
func newRemote(ctx context.Context, server string) *remote {
	base := strings.TrimRight(server, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &remote{ctx: ctx, base: base}
}

// Submit posts one job. A 429 wraps serve.ErrBusy (serve.ErrDraining
// when the server says it is draining), so the engine's backoff retries
// a full queue and gives up on a draining server.
func (r *remote) Submit(req serve.Request) (serve.Status, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serve.Status{}, err
	}
	var st serve.Status
	_, err = r.do(r.ctx, http.MethodPost, "/v1/jobs", body, &st)
	return st, err
}

// Wait reads the job's server-sent event stream up to its terminal
// status frame.
func (r *remote) Wait(ctx context.Context, id string) (serve.Status, error) {
	resp, err := r.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/stream", nil, nil)
	if err != nil {
		return serve.Status{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue // keepalive comment or frame separator
		}
		var st serve.Status
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return serve.Status{}, fmt.Errorf("job %s: bad stream frame: %w", id, err)
		}
		if st.State.Terminal() {
			return st, nil
		}
	}
	if ctx.Err() != nil {
		return serve.Status{}, ctx.Err()
	}
	return serve.Status{}, fmt.Errorf("job %s: stream ended before a terminal status (%v)", id, sc.Err())
}

// Result fetches a terminal job's status and result.
func (r *remote) Result(id string) (dsmnc.Result, serve.Status, error) {
	var out struct {
		Status serve.Status `json:"status"`
		Result dsmnc.Result `json:"result"`
	}
	_, err := r.do(r.ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &out)
	return out.Result, out.Status, err
}

// do sends one request and turns a non-2xx answer into an error
// carrying the server's error text. With out set it decodes the JSON
// answer into out; otherwise the caller reads and closes the body.
func (r *remote) do(ctx context.Context, method, path string, body []byte, out any) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 && out == nil {
		return resp, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return nil, fmt.Errorf("%s %s: decode answer: %w", method, path, err)
		}
		return resp, nil
	}
	var answer struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&answer)
	if resp.StatusCode == http.StatusTooManyRequests {
		shed := serve.ErrBusy
		if strings.Contains(answer.Error, serve.ErrDraining.Error()) {
			shed = serve.ErrDraining
		}
		return nil, fmt.Errorf("%w (%s %s: %s)", shed, method, path, answer.Error)
	}
	return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, answer.Error)
}
