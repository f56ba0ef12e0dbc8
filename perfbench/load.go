package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// conns is the number of closed-loop clients: callers that each wait for
// their reply before sending the next request.
const conns = 2

// sample is the outcome of one request.
type sample struct {
	idx      int
	lat      time.Duration // send → full body read
	done     time.Duration // completion time since the window started
	status   int
	shard    string // X-Mmlp-Shard: the member that answered (router only)
	reqBytes int
	body     []byte
	err      error
}

// client is one closed-loop caller: a synchronous HTTP/1.1 client on one
// keep-alive connection. Unlike net/http's Transport it runs no goroutines
// between the caller and the socket, so the generator's own cost per
// request stays small next to the fleet's on the shared CPUs.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  bytes.Buffer
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// send posts r and reads the whole response, reconnecting after a failure
// or a server close. A non-empty traceID asks for the per-stage trace
// block and tags the request with the ID.
func (c *client) send(r request, traceID string) sample {
	t := time.Now()
	fail := func(err error) sample {
		c.close()
		return sample{lat: time.Since(t), err: err}
	}
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return fail(err)
		}
		c.conn, c.br, c.bw = conn, bufio.NewReaderSize(conn, 64<<10), bufio.NewWriterSize(conn, 64<<10)
	}
	path := r.path
	if traceID != "" {
		path += "?trace=1"
	}
	fmt.Fprintf(c.bw, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n", path, c.addr, r.contentType, len(r.body))
	if traceID != "" {
		fmt.Fprintf(c.bw, "%s: %s\r\n", obs.TraceHeader, traceID)
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(r.body)
	if err := c.bw.Flush(); err != nil {
		return fail(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return fail(err)
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fail(err)
	}
	if resp.Close {
		c.close()
	}
	return sample{lat: time.Since(t), status: resp.StatusCode, shard: resp.Header.Get("X-Mmlp-Shard"), body: bytes.Clone(c.buf.Bytes())}
}

// window drives the closed loop through the router for dur, taking
// request indices from first upwards. It returns the samples ordered by
// index and the time from the start to the last completion.
func window(w *workload, first int, dur time.Duration, traceTag string) ([]sample, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	t0 := time.Now()
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &client{addr: routerAddr}
			defer cl.close()
			for time.Since(t0) < dur {
				i := int(next.Add(1) - 1)
				r := w.request(streamTimed, i)
				id := ""
				if traceTag != "" {
					id = fmt.Sprintf("%s-%d", traceTag, i)
				}
				s := cl.send(r, id)
				s.idx, s.done, s.reqBytes = i, time.Since(t0), len(r.body)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	var last time.Duration
	for _, ss := range per {
		all = append(all, ss...)
		for _, s := range ss {
			last = max(last, s.done)
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].idx < all[b].idx })
	return all, last
}

// sendAll sends a fixed list of requests through the router over the
// closed-loop clients and fails on the first answer that is not 200.
func sendAll(reqs []request) error {
	var next atomic.Int64
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &client{addr: routerAddr}
			defer cl.close()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				s := cl.send(reqs[i], "")
				if s.err == nil && s.status != http.StatusOK {
					s.err = fmt.Errorf("status %d: %s", s.status, bytes.TrimSpace(s.body))
				}
				if s.err != nil {
					errs[c] = fmt.Errorf("priming request %d: %w", i, s.err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending). It
// refuses when fewer than minBeyond samples lie beyond the quantile, since
// the tail would then rest on a handful of requests.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	rank := max(int(math.Ceil(q*float64(n))), 1)
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*q, minBeyond, max(n-rank, 0), n)
	}
	return sorted[rank-1], nil
}

// median returns the lower middle value of xs, or 0 for none. Unlike
// percentile it never refuses: per-layer medians over spans and pairs are
// reported from however many samples the layer produced.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}
