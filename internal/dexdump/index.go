package dexdump

import "strings"

// Index is the inverted index over the dump text. One tokenization pass
// extracts the operand tokens that the Sec. IV search commands key on —
// invoke target signatures, class descriptors of new-instance/const-class
// operands, const-string values, field signatures and every embedded
// "L...;" class descriptor — and records, per token, the ascending list of
// dump lines it occurs on. A search command then touches only its postings
// instead of every dump line; candidates are still re-verified against the
// exact grep predicate, so the index over-approximates and never changes
// hit semantics. See DESIGN.md Sec. 3.
//
// Postings are line numbers in ascending order. An Index is immutable
// after construction and safe for concurrent readers.
type Index struct {
	invokeBySig   map[string][]int32 // full target sig -> invoke-* lines
	invokeByName  map[string][]int32 // ".name:descriptor" -> invoke-* lines
	invokeByNameP map[string][]int32 // ".name:" prefix -> invoke-* lines
	ctorByPrefix  map[string][]int32 // "Lcls;.<init>:" -> invoke-direct lines
	newInstance   map[string][]int32 // class descriptor -> new-instance lines
	constClass    map[string][]int32 // class descriptor -> const-class lines
	constString   map[string][]int32 // rendered literal -> const-string lines
	fieldBySig    map[string][]int32 // field sig -> iget/iput/sget/sput lines
	classUse      map[string][]int32 // class descriptor -> every line using it

	// Side lists for lines whose string literal could satisfy a
	// Contains-style predicate in ways token extraction cannot
	// anticipate; the matching lookups always visit them too.
	oddStrings []int32 // const-string lines with escaped values
	oddFields  []int32 // quoted lines containing a field mnemonic
	oddCtors   []int32 // quoted lines containing "invoke-direct"
	oddInvokes []int32 // quoted lines containing "invoke-"

	lines    int
	postings int
}

// Source is the postings interface the indexed search backend resolves
// commands against. Both the single merged Index and the ShardedIndex
// implement it; every lookup returns an ascending, duplicate-free list of
// candidate dump lines that the caller re-verifies against the exact
// command predicate.
type Source interface {
	InvokeBySig(sig string) []int32
	InvokeByName(needle string) []int32
	InvokeByNamePrefix(prefix string) []int32
	CtorByPrefix(prefix string) []int32
	NewInstance(desc string) []int32
	ConstClass(desc string) []int32
	ConstString(value string) []int32
	FieldBySig(sig string) []int32
	ClassUse(desc string) []int32
	Lines() int
	Postings() int
	ShardCount() int
	// TokenListLengths returns the total postings-list length of every
	// distinct (token family, token) pair of the source — for a sharded
	// source the per-shard lists of one token are summed, since a lookup
	// visits them all. The order is unspecified; callers sort. The search
	// layer derives per-app parallel-lookup gates from this distribution.
	TokenListLengths() []int
}

func newIndex(lines int) *Index {
	return &Index{
		invokeBySig:   make(map[string][]int32),
		invokeByName:  make(map[string][]int32),
		invokeByNameP: make(map[string][]int32),
		ctorByPrefix:  make(map[string][]int32),
		newInstance:   make(map[string][]int32),
		constClass:    make(map[string][]int32),
		constString:   make(map[string][]int32),
		fieldBySig:    make(map[string][]int32),
		classUse:      make(map[string][]int32),
		lines:         lines,
	}
}

// BuildIndex tokenizes every dump line once and returns the inverted
// index. Cost is linear in the dump text; the caller is responsible for
// charging the work meter.
func BuildIndex(t *Text) *Index {
	idx := newIndex(len(t.lines))
	for i, line := range t.lines {
		idx.addLine(int32(i), line)
	}
	return idx
}

// Line-scan flags: the substring families the grep predicates test for.
const (
	hasInvoke       = 1 << iota // "invoke-"
	hasInvokeDirect             // "invoke-direct"
	hasNewInstance              // "new-instance"
	hasConstClass               // "const-class"
	hasConstString              // "const-string"
	hasFieldOp                  // "iget", "iput", "sget" or "sput"
)

// scanStart marks the bytes addLine must look at: the first bytes of the
// family substrings, the descriptor start 'L', the ", " separator, quotes
// and backslashes. Every other byte is skipped with one table load.
var scanStart = func() (t [256]bool) {
	for _, c := range []byte("incsL,\"\\") {
		t[c] = true
	}
	return t
}()

// addLine tokenizes one dump line in a single forward pass, indexing it
// under every family whose grep predicate the line satisfies.
func (x *Index) addLine(n int32, line string) {
	var fam uint8
	comma := -1                 // start of the last ", "
	q0, q1, quotes := -1, -1, 0 // first and last '"', and their count
	esc := -1                   // first '\\' after the first '"'
	semi := -1                  // first ';' at or after the current 'L', len(line) when none
	for i := 0; i < len(line); i++ {
		c := line[i]
		if !scanStart[c] {
			continue
		}
		rest := line[i:]
		switch c {
		case 'L':
			// Class-descriptor occurrences anywhere on the line: every
			// "L...;" token, wherever it starts. A descriptor contains no
			// ';', so if one occurs at position i the first ';' at or
			// after i closes it exactly; spurious tokens (an 'L' that is
			// not a descriptor start) only bloat unqueried postings lists
			// and are filtered by Match on lookup.
			if semi < i {
				semi = len(line)
				if j := strings.IndexByte(rest, ';'); j >= 0 {
					semi = i + j
				}
			}
			if semi < len(line) {
				x.add(x.classUse, line[i:semi+1], n)
			}
		case ',':
			if len(rest) > 1 && rest[1] == ' ' {
				comma = i
			}
		case '"':
			if q0 < 0 {
				q0 = i
			}
			q1 = i
			quotes++
		case '\\':
			if q0 >= 0 && esc < 0 {
				esc = i
			}
		default: // 'i', 'n', 'c' or 's': compare the first four bytes at once
			if len(rest) < 4 {
				continue
			}
			switch uint32(rest[0]) | uint32(rest[1])<<8 | uint32(rest[2])<<16 | uint32(rest[3])<<24 {
			case 'i' | 'n'<<8 | 'v'<<16 | 'o'<<24:
				if strings.HasPrefix(rest, "invoke-") {
					fam |= hasInvoke
					if strings.HasPrefix(rest[len("invoke-"):], "direct") {
						fam |= hasInvokeDirect
					}
				}
			case 'i' | 'g'<<8 | 'e'<<16 | 't'<<24, 'i' | 'p'<<8 | 'u'<<16 | 't'<<24,
				's' | 'g'<<8 | 'e'<<16 | 't'<<24, 's' | 'p'<<8 | 'u'<<16 | 't'<<24:
				fam |= hasFieldOp
			case 'n' | 'e'<<8 | 'w'<<16 | '-'<<24:
				if strings.HasPrefix(rest, "new-instance") {
					fam |= hasNewInstance
				}
			case 'c' | 'o'<<8 | 'n'<<16 | 's'<<24:
				if strings.HasPrefix(rest, "const-class") {
					fam |= hasConstClass
				} else if strings.HasPrefix(rest, "const-string") {
					fam |= hasConstString
				}
			}
		}
	}
	if fam == 0 {
		return
	}

	// Operand tokens live after the last ", " of an instruction line
	// (registers precede them); signatures and descriptors contain no
	// ", ", so the tail is the whole operand.
	tail := ""
	if comma >= 0 {
		tail = line[comma+2:]
	}
	// Double quotes appear only in const-string literals; a quoted line is
	// a literal whose content can accidentally satisfy Contains-style
	// predicates (see the side lists below).
	quoted := q0 >= 0

	// The family checks below are deliberately independent, not exclusive:
	// the linear grep predicates are substring tests, so a single line can
	// satisfy several families at once (e.g. a string literal whose value
	// contains a mnemonic). Indexing a line under a family it only
	// accidentally belongs to costs a posting; missing one would cost a
	// hit.
	if fam&hasInvoke != 0 && tail != "" {
		x.add(x.invokeBySig, tail, n)
		// ".name:descriptor" begins at the dot after the class descriptor;
		// the ".name:" prefix (descriptor-independent, the two-time ICC
		// search's first pass) ends at the colon after the name.
		if p := strings.Index(tail, ";."); p >= 0 {
			needle := tail[p+1:]
			x.add(x.invokeByName, needle, n)
			if c := strings.IndexByte(needle, ':'); c >= 0 {
				x.add(x.invokeByNameP, needle[:c+1], n)
			}
		}
		// Constructor prefix "Lcls;.<init>:" — everything up to and
		// including the colon that separates name from descriptor.
		if fam&hasInvokeDirect != 0 {
			if c := strings.IndexByte(tail, ':'); c >= 0 {
				x.add(x.ctorByPrefix, tail[:c+1], n)
			}
		}
		// A quoted line "containing" invoke- is a string literal that could
		// embed any ".name:" needle anywhere, which the linear Contains grep
		// would match; every prefix lookup must consider it.
		if quoted {
			x.addSide(&x.oddInvokes, n)
		}
	}
	if fam&hasNewInstance != 0 && tail != "" {
		x.add(x.newInstance, tail, n)
	}
	if fam&hasConstClass != 0 && tail != "" {
		x.add(x.constClass, tail, n)
	}
	if fam&hasConstString != 0 && q1 > q0 {
		x.add(x.constString, line[q0+1:q1], n)
		// Literals rendered with escapes can satisfy quoted-substring
		// queries that differ from the whole extracted value; keep them
		// on a side list every const-string lookup also visits. The value
		// holds a quote when the line has more than its two delimiters.
		if quotes > 2 || (esc >= 0 && esc < q1) {
			x.addSide(&x.oddStrings, n)
		}
	}
	if fam&hasFieldOp != 0 {
		if tail != "" {
			x.add(x.fieldBySig, tail, n)
		}
		// Only string literals carry double quotes in the dump; a quoted
		// line "containing" a field mnemonic is a literal that could also
		// embed any field signature, so every field lookup must consider
		// it (the linear grep would match it too).
		if quoted {
			x.addSide(&x.oddFields, n)
		}
	}
	// Same literal vector for the constructor search's Contains predicate.
	if quoted && fam&hasInvokeDirect != 0 {
		x.addSide(&x.oddCtors, n)
	}
}

// addSide appends line n to a side list, deduplicating repeats.
func (x *Index) addSide(list *[]int32, n int32) {
	if p := *list; len(p) > 0 && p[len(p)-1] == n {
		return
	}
	*list = append(*list, n)
	x.postings++
}

// add appends line n to the postings list of token, deduplicating
// consecutive inserts (the same token can occur twice on one line).
func (x *Index) add(m map[string][]int32, token string, n int32) {
	p := m[token]
	if len(p) > 0 && p[len(p)-1] == n {
		return
	}
	m[token] = append(p, n)
	x.postings++
}

// InvokeBySig returns the invoke lines whose target is exactly sig.
func (x *Index) InvokeBySig(sig string) []int32 { return x.invokeBySig[sig] }

// InvokeByName returns the invoke lines whose target ends in
// ".name:descriptor" regardless of declaring class.
func (x *Index) InvokeByName(needle string) []int32 { return x.invokeByName[needle] }

// InvokeByNamePrefix returns the candidate invoke lines whose target
// method name matches the ".name:" prefix regardless of declaring class
// and descriptor, plus any string literal mentioning an invoke mnemonic
// (the linear Contains grep would match those too; the caller's predicate
// filters them). This backs the two-time ICC search's first pass, which
// previously fell back to a raw O(lines) scan.
func (x *Index) InvokeByNamePrefix(prefix string) []int32 {
	return mergePostings(x.invokeByNameP[prefix], x.oddInvokes)
}

// CtorByPrefix returns the candidate invoke-direct lines calling any
// constructor with the given "Lcls;.<init>:" prefix, plus any string
// literal mentioning invoke-direct (the linear Contains grep would match
// those too; the caller's predicate filters them).
func (x *Index) CtorByPrefix(prefix string) []int32 {
	return mergePostings(x.ctorByPrefix[prefix], x.oddCtors)
}

// NewInstance returns the new-instance lines allocating the descriptor.
func (x *Index) NewInstance(desc string) []int32 { return x.newInstance[desc] }

// ConstClass returns the const-class lines loading the descriptor.
func (x *Index) ConstClass(desc string) []int32 { return x.constClass[desc] }

// ConstString returns the candidate const-string lines for the value: the
// lines whose whole rendered literal equals it, plus every line whose
// literal contains escapes (those can satisfy quoted-substring queries the
// value map cannot anticipate).
func (x *Index) ConstString(value string) []int32 {
	return mergePostings(x.constString[value], x.oddStrings)
}

// FieldBySig returns the candidate field access lines (reads and writes)
// of the field signature, plus any string literal containing a field
// mnemonic (those could embed the signature anywhere; the caller's
// predicate filters them).
func (x *Index) FieldBySig(sig string) []int32 {
	return mergePostings(x.fieldBySig[sig], x.oddFields)
}

// mergePostings merges two ascending duplicate-free postings lists into
// one ascending duplicate-free list.
func mergePostings(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default: // equal line in both lists
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// ClassUse returns every line on which the class descriptor occurs.
func (x *Index) ClassUse(desc string) []int32 { return x.classUse[desc] }

// Lines returns the number of dump lines the index covers.
func (x *Index) Lines() int { return x.lines }

// Postings returns the total number of postings across all token maps — a
// size/overhead measure for reports and tests.
func (x *Index) Postings() int { return x.postings }

// ShardCount returns 1: a single merged Index is one shard.
func (x *Index) ShardCount() int { return 1 }

// TokenListLengths returns the postings-list length of every token across
// all token maps (families are distinct lookups, so their tokens count
// separately even when the key strings collide).
func (x *Index) TokenListLengths() []int {
	var out []int
	for _, m := range x.maps() {
		for _, p := range *m {
			out = append(out, len(p))
		}
	}
	return out
}
