// Package config parses CloudyBench's props file: key=value pairs such as
// elastic_testTime and per-slot concurrency (paper §II), the input of
// `cloudybench custom`.
package config

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Props is a flat key=value configuration with typed accessors.
type Props struct {
	values map[string]string
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
		p.values[key] = val
	}
	return p, nil
}

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

// Int returns the integer value of key, or def when absent. A value that
// is not an integer is an error naming the key and the value.
func (p *Props) Int(key string, def int) (int, error) {
	v, ok := p.values[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("config: %s = %q is not an integer", key, v)
	}
	return n, nil
}

// Duration returns the duration value of key (Go syntax, e.g. "30s", or a
// bare number of seconds), or def when absent. Any other value is an error
// naming the key and the value.
func (p *Props) Duration(key string, def time.Duration) (time.Duration, error) {
	v, ok := p.values[key]
	if !ok {
		return def, nil
	}
	if d, err := time.ParseDuration(v); err == nil {
		return d, nil
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		return time.Duration(secs * float64(time.Second)), nil
	}
	return 0, fmt.Errorf("config: %s = %q is not a duration", key, v)
}

// SlotConcurrency extracts the paper's elasticity configuration style: an
// elastic_testTime slot count plus first_con, second_con, ... keys ("users
// can simply modify the length of elastic_testTime (e.g. 4) and add
// corresponding concurrency in the props file (e.g. fourth_con)").
func (p *Props) SlotConcurrency() ([]int, error) {
	n, err := p.Int("elastic_testTime", 0)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("config: elastic_testTime missing or non-positive")
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		key := ordinal(i) + "_con"
		if !p.Has(key) {
			return nil, fmt.Errorf("config: missing %s for slot %d of %d", key, i+1, n)
		}
		c, err := p.Int(key, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
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
