// Package client is the typed Go client of the QoS prediction service
// (internal/server): the library a cloud application's execution
// middleware uses to upload observed QoS data and fetch predictions for
// candidate-service ranking.
package client

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

	"github.com/qoslab/amf/internal/server"
)

// ErrNotFound is returned when the service reports 404 (unknown user or
// service, or no prediction available).
var ErrNotFound = errors.New("client: not found")

// Client talks to one QoS prediction service endpoint — an amfserver
// directly, or an amfgateway fronting a sharded cluster. The zero value
// is not usable; construct with New.
type Client struct {
	base string
	http *http.Client

	// Retries is the number of additional attempts for retryable
	// failures (default 0 = single attempt). What retries is chosen for
	// cluster safety: GETs are retried on transport errors and on
	// 502/503 (reads are idempotent, and a gateway mid-failover answers
	// 502/503 until the new leader is promoted); non-GET requests are
	// retried only on 503 — the service rejected the request before
	// applying it (follower redirect, shutdown drain; the gateway
	// upholds this by answering a non-retryable 500 when a sharded
	// batch was PARTIALLY applied) — and never on transport errors,
	// where the write's outcome is unknown.
	Retries int
	// RetryBackoff is the pause between attempts (default 100ms).
	RetryBackoff time.Duration
}

// New creates a client for the given base URL (e.g. "http://host:8080").
// httpClient may be nil, in which case a client with a 10-second timeout
// is used.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
		payload = buf
	}
	for attempt := 0; ; attempt++ {
		retryable, err := c.attempt(ctx, method, path, payload, out)
		if err == nil || !retryable || attempt >= c.Retries {
			return err
		}
		if werr := c.waitRetry(ctx); werr != nil {
			return err
		}
	}
}

// waitRetry sleeps one backoff, bailing early if ctx ends first.
func (c *Client) waitRetry(ctx context.Context) error {
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	t := time.NewTimer(backoff)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// attempt performs one request and reports whether a failure may be
// retried (see Retries for the policy).
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, out any) (retryable bool, err error) {
	var reader io.Reader
	if payload != nil {
		reader = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, reader)
	if err != nil {
		return false, fmt.Errorf("client: build request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return method == http.MethodGet, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		var apiErr server.ErrorResponse
		msg := resp.Status
		if decodeErr := json.NewDecoder(resp.Body).Decode(&apiErr); decodeErr == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		if resp.StatusCode == http.StatusNotFound {
			return false, fmt.Errorf("client: %s: %w", msg, ErrNotFound)
		}
		retryable = resp.StatusCode == http.StatusServiceUnavailable ||
			(method == http.MethodGet && resp.StatusCode == http.StatusBadGateway)
		return retryable, fmt.Errorf("client: %s %s: %s (HTTP %d)", method, path, msg, resp.StatusCode)
	}
	if out == nil {
		return false, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return false, fmt.Errorf("client: decode response: %w", err)
	}
	return false, nil
}

// Health checks the /healthz endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Observe uploads a batch of QoS observations.
func (c *Client) Observe(ctx context.Context, obs []server.Observation) (server.ObserveResponse, error) {
	var resp server.ObserveResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/observe", server.ObserveRequest{Observations: obs}, &resp)
	return resp, err
}

// Predict fetches the predicted QoS value for one (user, service) pair.
func (c *Client) Predict(ctx context.Context, user, service string) (float64, error) {
	q := url.Values{"user": {user}, "service": {service}}
	var resp server.PredictResponse
	if err := c.do(ctx, http.MethodGet, "/api/v1/predict?"+q.Encode(), nil, &resp); err != nil {
		return 0, err
	}
	return resp.Value, nil
}

// PredictBatch ranks many candidate services for one user in one call.
func (c *Client) PredictBatch(ctx context.Context, user string, services []string) ([]server.BatchPrediction, error) {
	var resp server.BatchPredictResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/predict",
		server.BatchPredictRequest{User: user, Services: services}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Predictions, nil
}

// BestCandidate returns the candidate with the smallest predicted value
// (i.e. the best replacement under a response-time attribute). ok is
// false when no candidate had a prediction.
func (c *Client) BestCandidate(ctx context.Context, user string, services []string) (best string, value float64, ok bool, err error) {
	preds, err := c.PredictBatch(ctx, user, services)
	if err != nil {
		return "", 0, false, err
	}
	for _, p := range preds {
		if !p.OK {
			continue
		}
		if !ok || p.Value < value {
			best, value, ok = p.Service, p.Value, true
		}
	}
	return best, value, ok, nil
}

// Stats fetches service statistics.
func (c *Client) Stats(ctx context.Context) (server.StatsResponse, error) {
	var resp server.StatsResponse
	err := c.do(ctx, http.MethodGet, "/api/v1/stats", nil, &resp)
	return resp, err
}

// Flagged lists users and services the model currently predicts poorly
// (tracked error at or above threshold; pass a negative threshold for the
// server default).
func (c *Client) Flagged(ctx context.Context, threshold float64) (server.FlaggedResponse, error) {
	path := "/api/v1/flagged"
	if threshold >= 0 {
		q := url.Values{"threshold": {strconv.FormatFloat(threshold, 'g', -1, 64)}}
		path += "?" + q.Encode()
	}
	var resp server.FlaggedResponse
	err := c.do(ctx, http.MethodGet, path, nil, &resp)
	return resp, err
}
