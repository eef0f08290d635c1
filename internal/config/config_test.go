package config

import (
	"strings"
	"testing"
	"time"
)

func TestParsePropsBasics(t *testing.T) {
	src := `
# elasticity setup
elastic_testTime = 4
first_con  = 11
second_con = 88
third_con  = 11
fourth_con = 0
! legacy comment style
slot = 30s
name = single peak
name = overridden
`
	p, err := ParseProps(src)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.Int("elastic_testTime", 0); n != 4 || err != nil {
		t.Fatalf("int = %d, %v", n, err)
	}
	if d, err := p.Duration("slot", 0); d != 30*time.Second || err != nil {
		t.Fatalf("duration = %v, %v", d, err)
	}
	if p.Str("name", "") != "overridden" {
		t.Fatal("later key should override")
	}
	if n, err := p.Int("missing", 7); p.Str("missing", "def") != "def" || n != 7 || err != nil {
		t.Fatal("defaults")
	}
	if p.Has("missing") || !p.Has("slot") {
		t.Fatal("Has")
	}
}

func TestParsePropsBareSecondsDuration(t *testing.T) {
	p, _ := ParseProps("warmup = 2.5")
	if d, err := p.Duration("warmup", 0); d != 2500*time.Millisecond || err != nil {
		t.Fatalf("bare seconds = %v, %v", d, err)
	}
}

// A malformed value is an error naming the key and the value, never the
// default: `first_con = 1l` must not run that slot at 0 clients.
func TestMalformedValuesAreErrors(t *testing.T) {
	p, _ := ParseProps("seed = x\nslot = 20sec\nelastic_testTime = 1\nfirst_con = 1l")
	if _, err := p.Int("seed", 42); err == nil || !strings.Contains(err.Error(), `seed = "x"`) {
		t.Errorf("Int: err = %v", err)
	}
	if _, err := p.Duration("slot", time.Second); err == nil || !strings.Contains(err.Error(), `slot = "20sec"`) {
		t.Errorf("Duration: err = %v", err)
	}
	if _, err := p.SlotConcurrency(); err == nil || !strings.Contains(err.Error(), `first_con = "1l"`) {
		t.Errorf("SlotConcurrency: err = %v", err)
	}
	p2, _ := ParseProps("elastic_testTime = four")
	if _, err := p2.SlotConcurrency(); err == nil || !strings.Contains(err.Error(), "elastic_testTime") {
		t.Errorf("SlotConcurrency: err = %v", err)
	}
}

func TestParsePropsErrors(t *testing.T) {
	for _, bad := range []string{"novalue", "=x", "  = 3"} {
		if _, err := ParseProps(bad); err == nil {
			t.Errorf("ParseProps(%q) succeeded", bad)
		}
	}
}

func TestSlotConcurrencyPaperStyle(t *testing.T) {
	p, _ := ParseProps(`
elastic_testTime = 4
first_con = 11
second_con = 88
third_con = 11
fourth_con = 0
`)
	cons, err := p.SlotConcurrency()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{11, 88, 11, 0}
	for i := range want {
		if cons[i] != want[i] {
			t.Fatalf("cons = %v", cons)
		}
	}
	// Missing slot key is an error naming the key.
	p2, _ := ParseProps("elastic_testTime = 2\nfirst_con = 5")
	if _, err := p2.SlotConcurrency(); err == nil || !strings.Contains(err.Error(), "second_con") {
		t.Fatalf("err = %v", err)
	}
	p3, _ := ParseProps("x = 1")
	if _, err := p3.SlotConcurrency(); err == nil {
		t.Fatal("missing elastic_testTime accepted")
	}
}

func TestOrdinalFallback(t *testing.T) {
	if ordinal(0) != "first" || ordinal(11) != "twelfth" {
		t.Fatal("named ordinals")
	}
	if ordinal(12) != "slot13" {
		t.Fatalf("fallback = %q", ordinal(12))
	}
}
