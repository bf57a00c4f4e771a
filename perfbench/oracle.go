package main

import (
	"fmt"

	"backdroid/internal/appgen"
	"backdroid/internal/core"
)

// checkVerdicts scores one report against the generated app's ground
// truth. A sink counts as detected when a report entry for its caller is
// reachable and insecure; the expected verdict is Reachable && Insecure.
// The one exception is the paper's known false negative (Sec. VI-C): a
// sink reached through an app subclass of the sink class is expected to
// be missed, and not even located, unless ResolveSinkSubclasses is set.
//
// Three mismatches fail the report: a located sink the truth expects
// but the report lacks ("missing sink"), a sink whose detected verdict
// differs from the expected one ("flipped verdict"), and a detection at
// a caller that hosts no expected vulnerability ("spurious detection").
// knownMisses counts the excused subclass-sink misses.
func checkVerdicts(r *core.Report, truth *appgen.GroundTruth, resolveSubclasses bool) (knownMisses int, err error) {
	type caller struct{ class, method string }
	entries := make(map[caller]int)
	detected := make(map[caller]bool)
	for _, s := range r.Sinks {
		c := caller{s.Call.Caller.Class, s.Call.Caller.Name}
		entries[c]++
		if s.Reachable && s.Insecure {
			detected[c] = true
		}
	}
	expectedAt := make(map[caller]bool)
	for _, t := range truth.Sinks {
		c := caller{t.Class, t.Method}
		want := t.Reachable && t.Insecure
		if t.Spec.Flow == appgen.FlowSubclassSink && !resolveSubclasses {
			if want {
				knownMisses++
			}
			continue
		}
		if want {
			expectedAt[c] = true
		}
		if entries[c] == 0 {
			return knownMisses, fmt.Errorf("%s: missing sink: %s flow in %s.%s has no report entry",
				truth.App, t.Spec.Flow, t.Class, t.Method)
		}
	}
	for _, t := range truth.Sinks {
		if t.Spec.Flow == appgen.FlowSubclassSink && !resolveSubclasses {
			continue
		}
		c := caller{t.Class, t.Method}
		// Two sinks may share one caller (the direct-pair flow); the
		// caller is then expected detected when either sink is.
		if want, got := expectedAt[c], detected[c]; want != got {
			return knownMisses, fmt.Errorf("%s: flipped verdict: %s flow in %s.%s detected=%v, want %v",
				truth.App, t.Spec.Flow, t.Class, t.Method, got, want)
		}
	}
	for c := range detected {
		if !expectedAt[c] {
			return knownMisses, fmt.Errorf("%s: spurious detection in %s.%s", truth.App, c.class, c.method)
		}
	}
	return knownMisses, nil
}
