package dexdump

import (
	"hash/fnv"
	"testing"
)

// TestCopyFreeHashesMatchHashFNV: DumpHash and SpanFingerprint fold the
// string bytes in place; their values must stay those of hash/fnv's
// FNV-64a over the same bytes, since bundles and manifests persist them.
func TestCopyFreeHashesMatchHashFNV(t *testing.T) {
	for _, s := range []string{"", "a", "\x00\xff", "foobar", "Lcom/foo/Bar;.run:()V\n"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := fnvString(fnvOffset64, s), h.Sum64(); got != want {
			t.Errorf("fnvString(%q) = %#x, want %#x", s, got, want)
		}
	}

	text := Disassemble(sampleFile(t))
	h := fnv.New64a()
	h.Write([]byte(text.String()))
	if got, want := DumpHash(text), h.Sum64(); got != want {
		t.Errorf("DumpHash = %#x, want %#x", got, want)
	}
	if DumpHash(&Text{}) != fnv.New64a().Sum64() {
		t.Error("DumpHash of an empty dump is not the FNV-64a offset basis")
	}

	for _, sp := range text.ClassSpans() {
		h := fnv.New64a()
		h.Write([]byte(sp.Name))
		h.Write([]byte{0})
		for _, line := range text.Lines()[sp.Start+1 : sp.End] {
			h.Write([]byte(line))
			h.Write([]byte{'\n'})
		}
		if got, want := SpanFingerprint(text, sp), h.Sum64(); got != want {
			t.Errorf("SpanFingerprint(%s) = %#x, want %#x", sp.Name, got, want)
		}
	}
	h = fnv.New64a()
	h.Write([]byte("x\x00"))
	if got, want := SpanFingerprint(text, ClassSpan{Name: "x", Start: 3, End: 3}), h.Sum64(); got != want {
		t.Errorf("empty span fingerprint = %#x, want %#x", got, want)
	}
}
