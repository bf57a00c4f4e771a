package main

import (
	"strings"
	"testing"

	"backdroid/internal/android"
	"backdroid/internal/appgen"
	"backdroid/internal/core"
)

// oracleApp generates and analyzes a small app with an insecure direct
// flow, a secure one, a dead one and a subclassed sink.
func oracleApp(t *testing.T) (*core.Report, *appgen.GroundTruth) {
	t.Helper()
	a, err := generate(appgen.Spec{
		Name: "com.bench.oracle", Seed: 11, SizeMB: 0.3,
		Sinks: []appgen.SinkSpec{
			{Flow: appgen.FlowDirect, Rule: android.RuleCryptoECB, Insecure: true},
			{Flow: appgen.FlowThread, Rule: android.RuleCryptoECB, Insecure: false},
			{Flow: appgen.FlowDead, Rule: android.RuleCryptoECB, Insecure: true},
			{Flow: appgen.FlowSubclassSink, Rule: android.RuleSSLAllowAll, Insecure: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := analyze(&a, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return r, a.truth
}

func TestOracleAcceptsCorrectReport(t *testing.T) {
	r, truth := oracleApp(t)
	known, err := checkVerdicts(r, truth, false)
	if err != nil {
		t.Fatal(err)
	}
	if known != 1 {
		t.Fatalf("%d known subclass-sink misses, want 1", known)
	}
}

func TestOracleFlagsFlippedVerdict(t *testing.T) {
	for _, want := range []bool{true, false} {
		r, truth := oracleApp(t)
		flipped := false
		for _, s := range r.Sinks {
			if s.Reachable && s.Insecure == want {
				s.Insecure = !want
				flipped = true
				break
			}
		}
		if !flipped {
			t.Fatalf("no reachable sink with insecure=%v to flip", want)
		}
		if _, err := checkVerdicts(r, truth, false); err == nil {
			t.Fatalf("flipping a verdict to insecure=%v went unnoticed", !want)
		}
	}
}

func TestOracleFlagsMissingSink(t *testing.T) {
	r, truth := oracleApp(t)
	r.Sinks = r.Sinks[1:]
	_, err := checkVerdicts(r, truth, false)
	if err == nil || !strings.Contains(err.Error(), "missing sink") {
		t.Fatalf("dropped sink: err = %v, want a missing sink", err)
	}
}

// With ResolveSinkSubclasses set, the subclassed sink is no longer an
// excused miss.
func TestOracleSubclassSinkExcusedOnlyByDefault(t *testing.T) {
	r, truth := oracleApp(t)
	if _, err := checkVerdicts(r, truth, true); err == nil {
		t.Fatal("a missed subclassed sink passed with ResolveSinkSubclasses set")
	}
}
