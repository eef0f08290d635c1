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
tenant_ratio = 0.6
serverless = true
slot = 30s
cons = 10, 20, 30
name = single peak
name = overridden
`
	p, err := ParseProps(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Int("elastic_testTime", 0) != 4 {
		t.Fatal("int")
	}
	if p.Float("tenant_ratio", 0) != 0.6 {
		t.Fatal("float")
	}
	if !p.Bool("serverless", false) {
		t.Fatal("bool")
	}
	if p.Duration("slot", 0) != 30*time.Second {
		t.Fatal("duration")
	}
	got := p.Ints("cons", nil)
	if len(got) != 3 || got[1] != 20 {
		t.Fatalf("ints: %v", got)
	}
	if p.Str("name", "") != "overridden" {
		t.Fatal("later key should override")
	}
	if p.Str("missing", "def") != "def" || p.Int("missing", 7) != 7 {
		t.Fatal("defaults")
	}
	if p.Has("missing") || !p.Has("slot") {
		t.Fatal("Has")
	}
}

func TestParsePropsBareSecondsDuration(t *testing.T) {
	p, _ := ParseProps("warmup = 2.5")
	if p.Duration("warmup", 0) != 2500*time.Millisecond {
		t.Fatal("bare seconds")
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
