package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// listen serves h on a loopback port and returns its base URL and a stop
// function that closes the listener and every connection.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	stop := func() {
		_ = hs.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// client is one closed-loop caller: a single keep-alive connection, a
// payload reader and a read buffer reused across requests, so that the
// generator's own cost per request stays a small, measured constant
// (client.stub_us_p50, client.alloc_kb_per_request).
type client struct {
	hc   *http.Client
	url  string
	body bytes.Reader
	buf  []byte
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		url: base + "/query",
		buf: make([]byte, 64<<10),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one response as the client saw it. body aliases the client's
// buffer and is valid until the next do.
type reply struct {
	status int
	body   []byte
	first  time.Duration // send → first complete frame (first newline)
	total  time.Duration // send → last byte
	frames int
}

// do posts payload and reads the whole response.
func (c *client) do(payload []byte) (reply, error) {
	c.body.Reset(payload)
	req, err := http.NewRequest(http.MethodPost, c.url, &c.body)
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode}
	n := 0
	for {
		if n == len(c.buf) {
			c.buf = append(c.buf, make([]byte, len(c.buf))...)
		}
		m, err := resp.Body.Read(c.buf[n:])
		if m > 0 {
			if r.first == 0 && bytes.IndexByte(c.buf[n:n+m], '\n') >= 0 {
				r.first = time.Since(start)
			}
			n += m
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return reply{}, err
		}
	}
	r.total = time.Since(start)
	r.body = c.buf[:n]
	r.frames = bytes.Count(r.body, []byte{'\n'})
	return r, nil
}

// lastFrame returns the final newline-terminated line of an NDJSON (or
// single-frame JSON) body.
func lastFrame(body []byte) []byte {
	body = bytes.TrimRight(body, "\n")
	if i := bytes.LastIndexByte(body, '\n'); i >= 0 {
		return body[i+1:]
	}
	return body
}

// wellFormed is the timed phase's cheap check: a 200 whose last frame is
// final and carries a result, not an error. Full grading against ground
// truth is the check pass's job; decoding every timed reply would make
// the generator, which shares the server's cores, part of the measurement.
func wellFormed(r reply) bool {
	if r.status != http.StatusOK || len(r.body) == 0 || r.body[len(r.body)-1] != '\n' {
		return false
	}
	last := lastFrame(r.body)
	return bytes.Contains(last, []byte(`"final":true`)) && bytes.Contains(last, []byte(`"result":{`))
}

// stubHandler answers every request with one canned body: the floor of
// what this client can measure, with no BlinkDB code behind it.
func stubHandler(size int) http.Handler {
	body := bytes.Repeat([]byte{'x'}, size)
	if size > 0 {
		body[size-1] = '\n'
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})
}

// stubResult is the client measured against stubHandler.
type stubResult struct {
	p50US        float64
	allocKBPerOp float64
}

// measureStub sends n requests to a stub returning size bytes and reports
// the client's median round trip and its allocation per request (client
// and net/http server side together: both live in this process).
func measureStub(size, n int, payload []byte) (stubResult, error) {
	base, stop, err := listen(stubHandler(size))
	if err != nil {
		return stubResult{}, err
	}
	defer stop()
	c := newClient(base)
	defer c.close()
	for i := 0; i < 50; i++ { // connection set-up and buffer growth
		if _, err := c.do(payload); err != nil {
			return stubResult{}, err
		}
	}
	lat := make([]float64, 0, n)
	before := readMem()
	for i := 0; i < n; i++ {
		r, err := c.do(payload)
		if err != nil {
			return stubResult{}, err
		}
		if r.status != http.StatusOK || len(r.body) != size {
			return stubResult{}, fmt.Errorf("stub reply: status %d, %d bytes, want 200, %d", r.status, len(r.body), size)
		}
		lat = append(lat, r.total.Seconds()*1e6)
	}
	after := readMem()
	return stubResult{
		p50US:        median(lat),
		allocKBPerOp: float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n),
	}, nil
}
