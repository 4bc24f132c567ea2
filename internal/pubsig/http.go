package pubsig

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// parseContentRange parses a Content-Range header of the form
// "bytes <start>-<end>/<total>" (total may be "*"), returning total = -1
// when unknown.
func parseContentRange(h string) (start, end, total int64, ok bool) {
	rest, found := strings.CutPrefix(h, "bytes ")
	if !found {
		return 0, 0, 0, false
	}
	span, totalStr, found := strings.Cut(rest, "/")
	if !found {
		return 0, 0, 0, false
	}
	startStr, endStr, found := strings.Cut(span, "-")
	if !found {
		return 0, 0, 0, false
	}
	var err error
	if start, err = strconv.ParseInt(startStr, 10, 64); err != nil || start < 0 {
		return 0, 0, 0, false
	}
	if end, err = strconv.ParseInt(endStr, 10, 64); err != nil || end < start {
		return 0, 0, 0, false
	}
	if totalStr == "*" {
		return start, end, -1, true
	}
	if total, err = strconv.ParseInt(totalStr, 10, 64); err != nil || total <= end {
		return 0, 0, 0, false
	}
	return start, end, total, true
}

// HTTPRangeFetcher returns a ContextFetcher that retrieves byte ranges of
// url with HTTP Range requests. It never trusts the transport blindly:
//
//   - a 206 reply must carry a Content-Range that matches the requested
//     range exactly, and a body of exactly that length — middleboxes that
//     rewrite ranges surface as errors, not silent corruption;
//   - a 200 reply (the server ignored Range) is accepted only when the
//     full body covers the requested range, which is then sliced out;
//   - 416 and every other status fail with the status text;
//   - the request carries the caller's context, so a stalled server is a
//     cancellation/timeout, not a hang.
func HTTPRangeFetcher(client *http.Client, url string) ContextFetcher {
	if client == nil {
		client = http.DefaultClient
	}
	return func(ctx context.Context, off, length int) ([]byte, error) {
		if off < 0 || length <= 0 {
			return nil, fmt.Errorf("pubsig: bad range [%d,%d)", off, off+length)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+length-1))
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusPartialContent:
			start, end, total, ok := parseContentRange(resp.Header.Get("Content-Range"))
			if !ok {
				return nil, fmt.Errorf("pubsig: 206 with unusable Content-Range %q", resp.Header.Get("Content-Range"))
			}
			if start != int64(off) || end != int64(off+length-1) {
				return nil, fmt.Errorf("pubsig: asked for [%d,%d), server sent [%d,%d]", off, off+length, start, end)
			}
			if total >= 0 && total < int64(off+length) {
				return nil, fmt.Errorf("pubsig: range [%d,%d) beyond resource length %d", off, off+length, total)
			}
			data, err := io.ReadAll(io.LimitReader(resp.Body, int64(length)+1))
			if err != nil {
				return nil, err
			}
			if len(data) != length {
				return nil, fmt.Errorf("pubsig: got %d bytes, want %d", len(data), length)
			}
			return data, nil
		case http.StatusOK:
			// Server ignored the Range header; the body is the whole
			// resource. Check the advertised length before reading, then
			// slice the requested range out of the prefix we need.
			if resp.ContentLength >= 0 && resp.ContentLength < int64(off+length) {
				return nil, fmt.Errorf("pubsig: full response of %d bytes cannot cover [%d,%d)", resp.ContentLength, off, off+length)
			}
			data, err := io.ReadAll(io.LimitReader(resp.Body, int64(off+length)))
			if err != nil {
				return nil, err
			}
			if len(data) < off+length {
				return nil, fmt.Errorf("pubsig: short full response: %d bytes cannot cover [%d,%d)", len(data), off, off+length)
			}
			return data[off : off+length : off+length], nil
		case http.StatusRequestedRangeNotSatisfiable:
			return nil, fmt.Errorf("pubsig: range [%d,%d) not satisfiable (stale signature?)", off, off+length)
		default:
			return nil, fmt.Errorf("pubsig: range request: %s", resp.Status)
		}
	}
}
