package wsanclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Options parameterizes a Client.
type Options struct {
	// HTTPClient overrides the transport (default http.DefaultClient).
	// Streams hold one connection open per subscription, so a client with
	// an overall Timeout set would kill them — use per-request contexts
	// for deadlines instead.
	HTTPClient *http.Client
	// MaxRetries bounds the retry attempts per request beyond the first
	// (default 3). Only transient failures are retried: connection errors,
	// 429 (honoring Retry-After), and 502/503/504. Retrying a submission
	// is safe — jobs are content-addressed, so a duplicate delivery is a
	// cache hit, not a duplicate job.
	MaxRetries int
	// RetryBackoff is the base delay before the first retry, doubling per
	// attempt (default 250ms, capped at 15s). 429 responses carrying
	// Retry-After use that value instead.
	RetryBackoff time.Duration
}

// Client talks to one wsan daemon. It is safe for concurrent use.
type Client struct {
	base    string // normalized base URL, no trailing slash, no /v1
	http    *http.Client
	retries int
	backoff time.Duration
}

// New builds a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8080"). The client always targets the /v1 API.
func New(baseURL string, opts Options) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	retries := opts.MaxRetries
	if retries == 0 {
		retries = 3
	}
	if retries < 0 {
		retries = 0
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	return &Client{
		base:    strings.TrimSuffix(baseURL, "/"),
		http:    hc,
		retries: retries,
		backoff: backoff,
	}
}

// BaseURL returns the daemon base URL the client was built with.
func (c *Client) BaseURL() string { return c.base }

// url assembles a /v1 endpoint URL from path segments, escaping each.
func (c *Client) url(segments ...string) string {
	var b strings.Builder
	b.WriteString(c.base)
	b.WriteString("/v1")
	for _, s := range segments {
		b.WriteByte('/')
		b.WriteString(url.PathEscape(s))
	}
	return b.String()
}

// maxClientBackoff caps the retry backoff growth.
const maxClientBackoff = 15 * time.Second

// retryDelay returns the backoff before retry (0-based), preferring the
// server's Retry-After when one was sent.
func (c *Client) retryDelay(retry int, resp *http.Response) time.Duration {
	if resp != nil {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				return time.Duration(secs) * time.Second
			}
		}
	}
	d := c.backoff
	for i := 0; i < retry && d < maxClientBackoff; i++ {
		d <<= 1
	}
	if d > maxClientBackoff {
		d = maxClientBackoff
	}
	return d
}

// retryableStatus reports whether an HTTP status is worth retrying.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// decodeAPIError builds the typed error from a non-2xx response body. A
// body that is not the v1 envelope (a proxy's error page, a pre-v1 daemon)
// degrades to an APIError with an empty code and the raw body as message.
func decodeAPIError(status int, body []byte) *APIError {
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Message != "" {
		return &APIError{Status: status, Code: env.Error.Code, Message: env.Error.Message}
	}
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = http.StatusText(status)
	}
	return &APIError{Status: status, Message: msg}
}

// asAPIError is errors.As specialized for *APIError.
func asAPIError(err error, target **APIError) bool { return errors.As(err, target) }

// do issues one request with retries and decodes a 2xx JSON response into
// out (nil skips decoding). body, when non-nil, is marshalled as JSON and
// re-sent identically on every retry.
func (c *Client) do(ctx context.Context, method, u string, body, out any) error {
	data, err := c.send(ctx, method, u, body)
	if err != nil {
		return err
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("wsanclient: decoding %s %s response: %w", method, u, err)
		}
	}
	return nil
}

// send issues one request with retries and returns the body of the 2xx
// response. A status ≥ 400 that is not retried, or is still returned after
// the last retry, comes back as its *APIError.
func (c *Client) send(ctx context.Context, method, u string, body any) ([]byte, error) {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("wsanclient: encoding request: %w", err)
		}
	}
	var lastErr error
	for retry := 0; ; retry++ {
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return nil, fmt.Errorf("wsanclient: %w", err)
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("wsanclient: %s %s: %w", method, u, err)
			if ctx.Err() != nil || retry >= c.retries {
				return nil, lastErr
			}
			if err := sleepCtx(ctx, c.retryDelay(retry, nil)); err != nil {
				return nil, lastErr
			}
			continue
		}
		data, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if readErr != nil {
			lastErr = fmt.Errorf("wsanclient: reading %s %s: %w", method, u, readErr)
			if ctx.Err() != nil || retry >= c.retries {
				return nil, lastErr
			}
			if err := sleepCtx(ctx, c.retryDelay(retry, nil)); err != nil {
				return nil, lastErr
			}
			continue
		}
		if resp.StatusCode >= 400 {
			apiErr := decodeAPIError(resp.StatusCode, data)
			if !retryableStatus(resp.StatusCode) || retry >= c.retries {
				return nil, apiErr
			}
			lastErr = apiErr
			if err := sleepCtx(ctx, c.retryDelay(retry, resp)); err != nil {
				return nil, lastErr
			}
			continue
		}
		return data, nil
	}
}

// sleepCtx sleeps for d or until ctx is done, returning ctx.Err() in the
// latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// CreateNetwork registers a network with the daemon.
func (c *Client) CreateNetwork(ctx context.Context, req CreateNetworkRequest) (Network, error) {
	var nw Network
	err := c.do(ctx, http.MethodPost, c.url("networks"), req, &nw)
	return nw, err
}

// Networks lists the hosted networks.
func (c *Client) Networks(ctx context.Context) ([]Network, error) {
	var out struct {
		Networks []Network `json:"networks"`
	}
	err := c.do(ctx, http.MethodGet, c.url("networks"), nil, &out)
	return out.Networks, err
}

// Network describes one hosted network.
func (c *Client) Network(ctx context.Context, name string) (Network, error) {
	var nw Network
	err := c.do(ctx, http.MethodGet, c.url("networks", name), nil, &nw)
	return nw, err
}

// DeleteNetwork deregisters a network.
func (c *Client) DeleteNetwork(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, c.url("networks", name), nil, nil)
}

// SubmitJob submits one asynchronous job against a network. params is
// marshalled as the job's parameter document (nil uses the kind's
// defaults). The returned job may already be done when the daemon had the
// artifact cached.
func (c *Client) SubmitJob(ctx context.Context, network, kind string, params any) (Job, error) {
	body := struct {
		Kind   string `json:"kind"`
		Params any    `json:"params,omitempty"`
	}{Kind: kind, Params: params}
	var j Job
	err := c.do(ctx, http.MethodPost, c.url("networks", network, "jobs"), body, &j)
	return j, err
}

// Job fetches one job's current state.
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	var j Job
	err := c.do(ctx, http.MethodGet, c.url("jobs", id), nil, &j)
	return j, err
}

// Jobs fetches one page of the jobs list (submission order). Zero limit
// returns everything after the cursor; an empty after starts at the
// beginning.
func (c *Client) Jobs(ctx context.Context, after string, limit int) (JobPage, error) {
	u := c.url("jobs") + pageQuery(after, limit)
	var page JobPage
	err := c.do(ctx, http.MethodGet, u, nil, &page)
	return page, err
}

// AllJobs fetches the complete jobs list by following nextAfter cursors.
// pageSize ≤ 0 uses 200 per request. The daemon's cursor resumes strictly
// past the last seen ID, so the walk is duplicate-free even while jobs are
// being submitted concurrently.
func (c *Client) AllJobs(ctx context.Context, pageSize int) ([]Job, error) {
	if pageSize <= 0 {
		pageSize = defaultPageSize
	}
	var all []Job
	after := ""
	for {
		page, err := c.Jobs(ctx, after, pageSize)
		if err != nil {
			return all, err
		}
		all = append(all, page.Jobs...)
		if page.NextAfter == "" {
			return all, nil
		}
		after = page.NextAfter
	}
}

// CancelJob cancels a queued or running job.
func (c *Client) CancelJob(ctx context.Context, id string) (Job, error) {
	var j Job
	err := c.do(ctx, http.MethodDelete, c.url("jobs", id), nil, &j)
	return j, err
}

// WaitJob polls a job until it reaches a terminal state or ctx expires.
// interval ≤ 0 defaults to 250ms.
func (c *Client) WaitJob(ctx context.Context, id string, interval time.Duration) (Job, error) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return j, err
		}
		if j.State.Terminal() {
			return j, nil
		}
		if err := sleepCtx(ctx, interval); err != nil {
			return j, err
		}
	}
}

// Artifacts fetches one page of the artifacts list (ID order).
func (c *Client) Artifacts(ctx context.Context, after string, limit int) (ArtifactPage, error) {
	u := c.url("artifacts") + pageQuery(after, limit)
	var page ArtifactPage
	err := c.do(ctx, http.MethodGet, u, nil, &page)
	return page, err
}

// AllArtifacts fetches the complete artifacts list by following nextAfter
// cursors. pageSize ≤ 0 uses 200 per request. The cursor resumes strictly
// past the last seen ID, so an artifact evicted between pages never breaks
// or duplicates the walk.
func (c *Client) AllArtifacts(ctx context.Context, pageSize int) ([]ArtifactInfo, error) {
	if pageSize <= 0 {
		pageSize = defaultPageSize
	}
	var all []ArtifactInfo
	after := ""
	for {
		page, err := c.Artifacts(ctx, after, pageSize)
		if err != nil {
			return all, err
		}
		all = append(all, page.Artifacts...)
		if page.NextAfter == "" {
			return all, nil
		}
		after = page.NextAfter
	}
}

// Artifact fetches one artifact bundle with all parts embedded.
func (c *Client) Artifact(ctx context.Context, id string) (Artifact, error) {
	var a Artifact
	err := c.do(ctx, http.MethodGet, c.url("artifacts", id), nil, &a)
	return a, err
}

// ArtifactPart fetches one part: the stored JSON document with the
// whitespace around it trimmed. That is the file the wsansim CLI writes
// without the encoder's final newline; the bytes between are exact. A body
// that is not a JSON object or array is an error.
func (c *Client) ArtifactPart(ctx context.Context, id, part string) ([]byte, error) {
	u := c.url("artifacts", id, part)
	data, err := c.send(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	data = bytes.Trim(data, " \t\r\n")
	if n := len(data); n < 2 || !(data[0] == '{' && data[n-1] == '}' || data[0] == '[' && data[n-1] == ']') {
		return nil, fmt.Errorf("wsanclient: decoding %s %s response: not a JSON object or array", http.MethodGet, u)
	}
	return data, nil
}

// Healthz fetches the daemon liveness document. The error is non-nil when
// the daemon is unreachable; a draining daemon responds (with status
// "draining") rather than erroring.
func (c *Client) Healthz(ctx context.Context) (map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return nil, fmt.Errorf("wsanclient: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("wsanclient: %w", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("wsanclient: decoding healthz: %w", err)
	}
	return out, nil
}

// Metrics fetches the daemon's live metrics snapshot — the same document
// /v1/metrics serves and `wsansim -metrics` prints.
func (c *Client) Metrics(ctx context.Context) (MetricsSnapshot, error) {
	var snap MetricsSnapshot
	err := c.do(ctx, http.MethodGet, c.url("metrics"), nil, &snap)
	return snap, err
}

// defaultPageSize is the per-request page size of the All* helpers.
const defaultPageSize = 200

// pageQuery encodes the cursor-pagination query parameters.
func pageQuery(after string, limit int) string {
	q := url.Values{}
	if after != "" {
		q.Set("after", after)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}
