// Package config parses CloudyBench's props file: key=value pairs such as
// elastic_testTime and per-slot concurrency (paper §II), the input of
// `cloudybench custom`.
package config

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Props is a flat key=value configuration with typed accessors.
type Props struct {
	values map[string]string
	keys   []string
}

// ParseProps parses a props document: one key=value per line, '#' or '!'
// comments, blank lines ignored, later keys override earlier ones.
func ParseProps(src string) (*Props, error) {
	p := &Props{values: make(map[string]string)}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "!") {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("config: line %d: expected key=value, got %q", lineNo+1, line)
		}
		key := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		if _, seen := p.values[key]; !seen {
			p.keys = append(p.keys, key)
		}
		p.values[key] = val
	}
	return p, nil
}

// Keys returns the keys in first-seen order.
func (p *Props) Keys() []string { return append([]string(nil), p.keys...) }

// Has reports whether key is present.
func (p *Props) Has(key string) bool {
	_, ok := p.values[key]
	return ok
}

// Str returns the value of key, or def when absent.
func (p *Props) Str(key, def string) string {
	if v, ok := p.values[key]; ok {
		return v
	}
	return def
}

// Int returns the integer value of key, or def when absent or malformed.
func (p *Props) Int(key string, def int) int {
	v, ok := p.values[key]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// Float returns the float value of key, or def.
func (p *Props) Float(key string, def float64) float64 {
	v, ok := p.values[key]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return def
	}
	return f
}

// Bool returns the boolean value of key, or def.
func (p *Props) Bool(key string, def bool) bool {
	v, ok := p.values[key]
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return def
	}
	return b
}

// Duration returns the duration value of key (Go syntax, e.g. "30s"), or
// a bare number interpreted as seconds, or def.
func (p *Props) Duration(key string, def time.Duration) time.Duration {
	v, ok := p.values[key]
	if !ok {
		return def
	}
	if d, err := time.ParseDuration(v); err == nil {
		return d
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		return time.Duration(secs * float64(time.Second))
	}
	return def
}

// Ints returns a comma-separated integer list, or def.
func (p *Props) Ints(key string, def []int) []int {
	v, ok := p.values[key]
	if !ok {
		return def
	}
	parts := strings.Split(v, ",")
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return def
		}
		out = append(out, n)
	}
	return out
}

// SlotConcurrency extracts the paper's elasticity configuration style: an
// elastic_testTime slot count plus first_con, second_con, ... keys ("users
// can simply modify the length of elastic_testTime (e.g. 4) and add
// corresponding concurrency in the props file (e.g. fourth_con)").
func (p *Props) SlotConcurrency() ([]int, error) {
	n := p.Int("elastic_testTime", 0)
	if n <= 0 {
		return nil, fmt.Errorf("config: elastic_testTime missing or non-positive")
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		key := ordinal(i) + "_con"
		if !p.Has(key) {
			return nil, fmt.Errorf("config: missing %s for slot %d of %d", key, i+1, n)
		}
		out = append(out, p.Int(key, 0))
	}
	return out, nil
}

var ordinals = []string{
	"first", "second", "third", "fourth", "fifth", "sixth", "seventh",
	"eighth", "ninth", "tenth", "eleventh", "twelfth",
}

func ordinal(i int) string {
	if i < len(ordinals) {
		return ordinals[i]
	}
	return fmt.Sprintf("slot%d", i+1)
}

// SortedKeys returns all keys sorted, for deterministic dumps.
func (p *Props) SortedKeys() []string {
	out := append([]string(nil), p.keys...)
	sort.Strings(out)
	return out
}
