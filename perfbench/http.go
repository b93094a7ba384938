package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"greedy80211/internal/obs"
)

// routeKey collapses a request to its route: the method plus the path
// with the resource id (the third segment of a /v1/<collection>/<id>/...
// path) replaced by {id}, so every lease, campaign and store key of one
// endpoint lands in one distribution.
func routeKey(method, path string) string {
	segs := strings.Split(strings.Trim(path, "/"), "/")
	if len(segs) >= 3 && segs[0] == "v1" {
		segs[2] = "{id}"
	}
	return method + " /" + strings.Join(segs, "/")
}

const (
	routeLease    = "POST /v1/campaigns/{id}/lease"
	routeComplete = "POST /v1/leases/{id}/complete"
)

// exchange is one HTTP request as a worker's transport saw it: sent at
// Start, response headers back at End.
type exchange struct {
	Route  string
	Start  time.Time
	End    time.Time
	Status int
}

// meter is one worker's http.RoundTripper. It counts requests and
// failures and, when record is set (traced runs only), keeps every
// exchange in order.
type meter struct {
	base   http.RoundTripper
	record bool

	requests, failed atomic.Int64
	mu               sync.Mutex
	log              []exchange
}

func (m *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeKey(req.Method, req.URL.Path)
	start := time.Now()
	resp, err := m.base.RoundTrip(req)
	end := time.Now()
	if err != nil && req.Context().Err() != nil {
		return resp, err // cancelled by the benchmark once the campaign is done
	}
	m.requests.Add(1)
	status := 0
	if err == nil {
		status = resp.StatusCode
	}
	if err != nil || status >= 400 {
		m.failed.Add(1)
	}
	if m.record {
		m.mu.Lock()
		m.log = append(m.log, exchange{Route: route, Start: start, End: end, Status: status})
		m.mu.Unlock()
	}
	return resp, err
}

// exchanges returns a copy of the recorded log.
func (m *meter) exchanges() []exchange {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]exchange(nil), m.log...)
}

// scrape holds every sample of one Prometheus text exposition, keyed by
// metric name and then by the sample's label set.
type scrape map[string][]labelled

type labelled struct {
	labels map[string]string
	value  float64
}

// parseScrape validates an exposition with the program's own linter
// (obs.ParsePrometheusText) and then reads every sample with its labels,
// which the linter's summary does not keep.
func parseScrape(text []byte) (scrape, error) {
	if _, err := obs.ParsePrometheusText(bytes.NewReader(text)); err != nil {
		return nil, err
	}
	out := make(scrape)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels, rest, err := splitSeries(line)
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("scrape: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: value in %q: %w", line, err)
		}
		out[name] = append(out[name], labelled{labels: labels, value: v})
	}
	return out, sc.Err()
}

// splitSeries splits `name{k="v",...} rest` into its parts, undoing
// the exposition's \\, \" and \n escapes in label values.
func splitSeries(line string) (name string, labels map[string]string, rest string, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return "", nil, "", fmt.Errorf("scrape: no value in %q", line)
	}
	name, labels = line[:i], map[string]string{}
	if line[i] != '{' {
		return name, labels, line[i:], nil
	}
	s := line[i+1:]
	for {
		s = strings.TrimLeft(s, ", ")
		if strings.HasPrefix(s, "}") {
			return name, labels, s[1:], nil
		}
		eq := strings.Index(s, "=\"")
		if eq < 0 {
			return "", nil, "", fmt.Errorf("scrape: bad labels in %q", line)
		}
		key := s[:eq]
		s = s[eq+2:]
		var val strings.Builder
		closed := false
		for j := 0; j < len(s); j++ {
			c := s[j]
			if c == '\\' && j+1 < len(s) {
				j++
				switch s[j] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[j])
				}
				continue
			}
			if c == '"' {
				s, closed = s[j+1:], true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return "", nil, "", fmt.Errorf("scrape: unterminated label in %q", line)
		}
		labels[key] = val.String()
	}
}

// sum adds every sample of name whose labels include all of the given
// key, value pairs.
func (s scrape) sum(name string, kv ...string) float64 {
	var total float64
	for _, l := range s[name] {
		match := true
		for i := 0; i+1 < len(kv); i += 2 {
			if l.labels[kv[i]] != kv[i+1] {
				match = false
				break
			}
		}
		if match {
			total += l.value
		}
	}
	return total
}
