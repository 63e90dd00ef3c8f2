package main

import (
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// httpCounter totals the requests and body bytes (request plus response
// payloads, headers excluded) that the grid clients exchange.
type httpCounter struct {
	requests, bytes atomic.Int64
}

// client returns an HTTP client with its own transport whose round trips
// are counted.
func (c *httpCounter) client() *http.Client {
	base := http.DefaultTransport.(*http.Transport).Clone()
	// The RemoteExecutor long-polls for results; its timeout must exceed
	// the poll window, as grid.NewHTTPClient's default does.
	return &http.Client{Transport: &countingTransport{c: c, base: base}, Timeout: 90 * time.Second}
}

type countingTransport struct {
	c    *httpCounter
	base *http.Transport
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.c.requests.Add(1)
	if req.ContentLength > 0 {
		t.c.bytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, c: t.c}
	return resp, nil
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// wrapped transport.
func (t *countingTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

type countingBody struct {
	io.ReadCloser
	c *httpCounter
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.c.bytes.Add(int64(n))
	return n, err
}
