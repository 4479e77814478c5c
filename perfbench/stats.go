package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of ascending
// samples, with the number of samples that lie above that rank — the
// support the guide asks a reported percentile to have.
func percentile(sorted []int64, p float64) (value int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// median returns the median of xs (the mean of the middle pair for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promText is a parsed exposition: awserve's /metrics, or the in-process
// obs registry.
type promText []promSample

// parseProm parses the Prometheus text format the obs registry writes:
// comment lines, then `name{k="v",...} value` samples with the standard
// label-value escapes.
func parseProm(text string) (promText, error) {
	var out promText
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", lineNo+1, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no metric name in %q", line)
	}
	s.name, line = line[:i], line[i:]
	if line[0] == '{' {
		line = line[1:]
		for {
			if strings.HasPrefix(line, "}") {
				line = line[1:]
				break
			}
			eq := strings.Index(line, `="`)
			if eq <= 0 {
				return s, fmt.Errorf("malformed label set in %q", line)
			}
			key := line[:eq]
			line = line[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(line); j++ {
				c := line[j]
				if c == '\\' && j+1 < len(line) {
					j++
					switch line[j] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(line[j])
					}
					continue
				}
				if c == '"' {
					line = line[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value for %s", key)
			}
			s.labels[key] = val.String()
			line = strings.TrimPrefix(line, ",")
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		return s, fmt.Errorf("bad value for %s: %w", s.name, err)
	}
	s.value = v
	return s, nil
}

// sum adds the samples of one metric whose labels include every pair of
// match (nil matches all series).
func (p promText) sum(name string, match map[string]string) float64 {
	var total float64
next:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for k, v := range match {
			if s.labels[k] != v {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// promDelta is how much a metric's matching series grew between two reads.
func promDelta(before, after promText, name string, match map[string]string) float64 {
	return after.sum(name, match) - before.sum(name, match)
}
