package dexdump

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/dex"
)

// parityApp names one generated app of the parity corpus.
type parityApp struct {
	name string
	gen  func() (*apk.App, *appgen.GroundTruth, error)
}

// parityCorpus is every paper-corpus app, every heavy-tail app, and the
// v2 (changed literal) and v3 (new flow, added class) update variants of
// every twelfth corpus app. Under the race detector, which slows the
// Sprintf oracle about tenfold, only every eighth corpus app is kept; the
// plain test run covers them all.
func parityCorpus() []parityApp {
	var out []parityApp
	specs := appgen.EvalCorpus(appgen.DefaultCorpus())
	for i, spec := range specs {
		if raceEnabled && i%8 != 0 {
			continue
		}
		out = append(out, parityApp{spec.Name, func() (*apk.App, *appgen.GroundTruth, error) { return appgen.Generate(spec) }})
		if i%12 != 0 {
			continue
		}
		for _, mut := range appgen.Mutations() {
			u := appgen.AppUpdateSpec{Base: spec, Mutation: mut, Seed: spec.Seed + 1}
			out = append(out, parityApp{spec.Name + "@" + mut.String(), func() (*apk.App, *appgen.GroundTruth, error) { return appgen.GenerateUpdate(u) }})
		}
	}
	for _, spec := range appgen.HeavyTailCorpus(appgen.HeavyTailOptions{Seed: 7}) {
		out = append(out, parityApp{spec.Name, func() (*apk.App, *appgen.GroundTruth, error) { return appgen.Generate(spec) }})
	}
	return out
}

// checkDumpParity compares Disassemble against the Sprintf reference
// renderer and BuildIndex against the multi-pass reference tokenizer.
func checkDumpParity(f *dex.File) error {
	lines, methodOfLine, methods, spans := refDisassemble(f)
	got := Disassemble(f)
	want := ""
	if len(lines) > 0 {
		want = strings.Join(lines, "\n") + "\n"
	}
	if got.String() != want {
		return fmt.Errorf("dump text differs from the reference (%d vs %d bytes)", len(got.String()), len(want))
	}
	if !slices.Equal(got.Lines(), lines) {
		return fmt.Errorf("dump lines differ from the reference")
	}
	if len(got.methodOfLine) != len(methodOfLine) {
		return fmt.Errorf("method attribution covers %d lines, want %d", len(got.methodOfLine), len(methodOfLine))
	}
	for i, m := range methodOfLine {
		if int(got.methodOfLine[i]) != m {
			return fmt.Errorf("line %d attributed to method %d, want %d", i, got.methodOfLine[i], m)
		}
	}
	if len(got.Methods()) != len(methods) || (len(methods) > 0 && !reflect.DeepEqual(got.Methods(), methods)) {
		return fmt.Errorf("method table differs from the reference")
	}
	if !slices.Equal(got.ClassSpans(), spans) {
		return fmt.Errorf("class spans differ from the reference")
	}
	return indexesEqual(BuildIndex(got), refBuildIndex(lines))
}

// indexesEqual compares two indexes posting list by posting list: all
// nine token families, the four side lists and both counters.
func indexesEqual(got, want *Index) error {
	names := []string{"invokeBySig", "invokeByName", "invokeByNameP", "ctorByPrefix",
		"newInstance", "constClass", "constString", "fieldBySig", "classUse"}
	gm, wm := got.maps(), want.maps()
	for i := range gm {
		if len(*gm[i]) != len(*wm[i]) {
			return fmt.Errorf("%s: %d tokens, want %d", names[i], len(*gm[i]), len(*wm[i]))
		}
		for tok, wp := range *wm[i] {
			if gp := (*gm[i])[tok]; !equalPostings(gp, wp) {
				return fmt.Errorf("%s[%q] = %v, want %v", names[i], tok, gp, wp)
			}
		}
	}
	sides := []string{"oddStrings", "oddFields", "oddCtors", "oddInvokes"}
	gs, ws := got.sideLists(), want.sideLists()
	for i := range gs {
		if !equalPostings(*gs[i], *ws[i]) {
			return fmt.Errorf("%s = %v, want %v", sides[i], *gs[i], *ws[i])
		}
	}
	if got.Lines() != want.Lines() || got.Postings() != want.Postings() {
		return fmt.Errorf("lines/postings = %d/%d, want %d/%d", got.Lines(), got.Postings(), want.Lines(), want.Postings())
	}
	return nil
}

// TestDumpParityCorpus: on every generated corpus app, the append-based
// renderer reproduces the Sprintf reference dump byte for byte and the
// one-pass tokenizer reproduces the reference postings exactly (the
// postings charge and every search hit depend on them).
func TestDumpParityCorpus(t *testing.T) {
	apps := parityCorpus()
	workers := min(runtime.GOMAXPROCS(0), 4)
	next := make(chan parityApp)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range next {
				app, _, err := a.gen()
				if err != nil {
					t.Errorf("%s: generate: %v", a.name, err)
					continue
				}
				merged, err := app.MergedDex()
				if err != nil {
					t.Errorf("%s: merge: %v", a.name, err)
					continue
				}
				if err := checkDumpParity(merged); err != nil {
					t.Errorf("%s: %v", a.name, err)
				}
			}
		}()
	}
	for _, a := range apps {
		next <- a
	}
	close(next)
	wg.Wait()
}

// TestDumpParityEdgeCases covers renderings the generator never emits:
// hostile names and literals that embed mnemonics, quotes, escapes,
// ", " separators and stray descriptors, plus empty files and classes.
func TestDumpParityEdgeCases(t *testing.T) {
	if err := checkDumpParity(dex.NewFile()); err != nil {
		t.Errorf("empty file: %v", err)
	}
	f := dex.NewFile()
	odd := dex.NewClass("com.widget.invoke-direct, Lx;.iget").Implements("a.b, c").Implements("Lfoo;")
	lits := []string{
		"", `"`, `\`, `a"b`, `a\b`, "tab\there", "ünïcödé ☃", "\x00\xff",
		`invoke-direct {v0}, La;.<init>:()V`, `iget-object v0, v1, La;.f:I`,
		`const-class v0, La;`, `new-instance v0, LFoo;`, `", "`, `L;L;`,
		`const-string v1, "x"`, `sput, Lq;.r:I`,
	}
	m := odd.StaticMethod("m, n", dex.Void, dex.T("L.x;"))
	r := m.Reg()
	for _, s := range lits {
		m.ConstString(r, s)
	}
	m.ReturnVoid().Done()
	if err := f.AddClass(odd.Build()); err != nil {
		t.Fatal(err)
	}
	if err := f.AddClass(&dex.Class{Name: "Empty", Flags: dex.AccInterface | dex.AccAbstract}); err != nil {
		t.Fatal(err)
	}
	if err := checkDumpParity(f); err != nil {
		t.Error(err)
	}
	for _, s := range lits {
		x := newIndex(1)
		x.addLine(0, s)
		y := newIndex(1)
		refAddLine(y, 0, s)
		if err := indexesEqual(x, y); err != nil {
			t.Errorf("line %q: %v", s, err)
		}
	}
}

// TestDisassembleAllocationFence: rendering allocates at most three times
// the dump's size — the dump buffer, the line headers, the method table
// and the attribution together — where the Sprintf renderer allocated
// over ten.
func TestDisassembleAllocationFence(t *testing.T) {
	specs := appgen.EvalCorpus(appgen.DefaultCorpus())
	for _, i := range []int{0, 1, 2, 17, 100} {
		app, _, err := appgen.Generate(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		merged, err := app.MergedDex()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		text := Disassemble(merged)
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %.2fx", specs[i].Name, float64(alloc)/float64(len(text.String())))
		if size := uint64(len(text.String())); alloc > 3*size {
			t.Errorf("%s: Disassemble allocated %d bytes for a %d-byte dump (%.2fx, limit 3x)",
				specs[i].Name, alloc, size, float64(alloc)/float64(size))
		}
	}
}
