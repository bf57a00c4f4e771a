// Package dexdump disassembles a dex file into the plaintext that
// BackDroid's on-the-fly bytecode search greps. The layout mirrors the real
// dexdump output shown in the paper's Fig. 3: per-class headers, per-method
// "name:"/"type:" headers with an "(in Lcls;)" marker, and one
// "|NNNN: mnemonic operands" line per instruction.
package dexdump

import (
	"strconv"
	"strings"

	"backdroid/internal/dex"
)

// Text is the disassembled dump of one (merged) dex file. It retains the
// mapping from each text line back to the containing method so the search
// engine can perform the paper's "identify method in bytecode text" step.
//
// The dump is held once: full is the whole rendered text and every entry
// of lines is a substring of it (without the trailing newline), so the
// line view costs one string header per line and no second copy.
type Text struct {
	full         string
	lines        []string
	methodOfLine []int32 // index into methods, -1 for non-method lines
	methods      []dex.MethodRef
	spans        []ClassSpan
}

// ClassSpan is the contiguous line range one class occupies in the dump.
// Spans tile [0, LineCount()) in class order; they are the atomic unit the
// sharded index partitions (a class never straddles two shards).
type ClassSpan struct {
	Name  string // dotted class name, e.g. "com.lge.app1.Main"
	Start int    // first dump line of the class block
	End   int    // one past the last dump line of the class block
}

// Presizing estimates for the dump buffer, a little above the mean line
// lengths of the paper corpus (42–48 bytes per instruction line, 39–42
// per header line), so a typical app renders without regrowing. They only
// size the first allocation; longer lines just grow the buffer.
const (
	instrLineBytes  = 52
	headerLineBytes = 44
)

// renderer accumulates the dump: each line is rendered into the reusable
// line buffer with the dex Append* helpers, then copied once into the
// dump buffer.
type renderer struct {
	t    *Text
	buf  strings.Builder
	line []byte
	ends []int // offset of each emitted line's terminating newline
}

// emit terminates the line being rendered and attributes it to methodIdx.
func (r *renderer) emit(methodIdx int) {
	r.buf.Write(r.line)
	r.ends = append(r.ends, r.buf.Len())
	r.buf.WriteByte('\n')
	r.t.methodOfLine = append(r.t.methodOfLine, int32(methodIdx))
	r.line = r.line[:0]
}

// Disassemble renders the dex file as searchable plaintext.
func Disassemble(f *dex.File) *Text {
	classes := f.Classes()
	lines, instrs, methods := 0, 0, 0
	for _, c := range classes {
		lines += 7 + len(c.Interfaces) + 4*len(c.Methods)
		methods += len(c.Methods)
		for _, m := range c.Methods {
			if !m.IsAbstract() {
				lines += 1 + len(m.Code)
				instrs += len(m.Code)
			}
		}
	}
	t := &Text{
		methodOfLine: make([]int32, 0, lines),
		methods:      make([]dex.MethodRef, 0, methods),
		spans:        make([]ClassSpan, 0, len(classes)),
	}
	r := &renderer{t: t, line: make([]byte, 0, 256), ends: make([]int, 0, lines)}
	r.buf.Grow(instrs*instrLineBytes + (lines-instrs)*headerLineBytes)

	for ci, c := range classes {
		span := ClassSpan{Name: c.Name, Start: len(r.ends)}
		r.line = strconv.AppendInt(append(r.line, "Class #"...), int64(ci), 10)
		r.line = append(r.line, "            -"...)
		r.emit(-1)
		r.line = dex.AppendT(append(r.line, "  Class descriptor  : '"...), c.Name)
		r.line = append(r.line, '\'')
		r.emit(-1)
		r.line = c.Flags.AppendString(append(r.line, "  Access flags      : "...))
		r.emit(-1)
		r.line = append(r.line, "  Superclass        : '"...)
		if c.Super != "" {
			r.line = dex.AppendT(r.line, c.Super)
		}
		r.line = append(r.line, '\'')
		r.emit(-1)
		r.line = append(r.line, "  Interfaces        -"...)
		r.emit(-1)
		for ii, iface := range c.Interfaces {
			r.line = strconv.AppendInt(append(r.line, "    #"...), int64(ii), 10)
			r.line = dex.AppendT(append(r.line, "              : '"...), iface)
			r.line = append(r.line, '\'')
			r.emit(-1)
		}
		r.methods(c.Name, "  Direct methods    -", c.DirectMethods())
		r.methods(c.Name, "  Virtual methods   -", c.VirtualMethods())
		span.End = len(r.ends)
		t.spans = append(t.spans, span)
	}

	t.full = r.buf.String()
	t.lines = make([]string, len(r.ends))
	start := 0
	for i, end := range r.ends {
		t.lines[i] = t.full[start:end]
		start = end + 1
	}
	return t
}

// methods renders one method group of class cls under its header.
func (r *renderer) methods(cls, header string, methods []*dex.Method) {
	r.line = append(r.line, header...)
	r.emit(-1)
	for mi, m := range methods {
		midx := len(r.t.methods)
		r.t.methods = append(r.t.methods, m.Ref)
		r.line = strconv.AppendInt(append(r.line, "    #"...), int64(mi), 10)
		r.line = dex.AppendT(append(r.line, "              : (in "...), cls)
		r.line = append(r.line, ')')
		r.emit(-1)
		r.line = append(append(r.line, "      name          : '"...), m.Ref.Name...)
		r.line = append(r.line, '\'')
		r.emit(midx)
		r.line = m.Ref.AppendDescriptor(append(r.line, "      type          : '"...))
		r.line = append(r.line, '\'')
		r.emit(midx)
		r.line = m.Flags.AppendString(append(r.line, "      access        : "...))
		r.emit(midx)
		if m.IsAbstract() {
			continue
		}
		r.line = strconv.AppendInt(append(r.line, "      insns size    : "...), int64(len(m.Code)), 10)
		r.line = append(r.line, " 16-bit code units"...)
		r.emit(midx)
		for pc := range m.Code {
			r.line = dex.AppendHex4(append(r.line, "        |"...), int64(pc))
			r.line = m.Code[pc].AppendFormat(append(r.line, ": "...))
			r.emit(midx)
		}
	}
}

// String returns the full dump text.
func (t *Text) String() string { return t.full }

// Lines returns the dump lines. The slice must not be modified.
func (t *Text) Lines() []string { return t.lines }

// LineCount returns the number of dump lines.
func (t *Text) LineCount() int { return len(t.lines) }

// MethodAt returns the method containing the given dump line, if any.
func (t *Text) MethodAt(line int) (dex.MethodRef, bool) {
	if line < 0 || line >= len(t.methodOfLine) || t.methodOfLine[line] < 0 {
		return dex.MethodRef{}, false
	}
	return t.methods[t.methodOfLine[line]], true
}

// Methods returns every method that appears in the dump, in dump order.
func (t *Text) Methods() []dex.MethodRef { return t.methods }

// ClassSpans returns the per-class line ranges in dump order. The spans
// tile [0, LineCount()). The slice must not be modified.
func (t *Text) ClassSpans() []ClassSpan { return t.spans }
