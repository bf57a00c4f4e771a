package dexdump

import (
	"fmt"
	"strings"

	"backdroid/internal/dex"
)

// The reference oracle: the original fmt.Sprintf dexdump renderer and the
// original multi-pass line tokenizer, kept verbatim (modulo naming) so
// the append-based renderer and the one-pass tokenizer can be checked
// against them byte for byte and posting for posting. Nothing here
// calls the production rendering helpers (AppendFormat, AppendString,
// AppendT, AppendDexSignature, AppendDescriptor): every string is built
// with fmt and string concatenation, so a bug in one of those helpers
// cannot hide in the oracle too.

func refT(className string) string {
	return "L" + strings.ReplaceAll(className, ".", "/") + ";"
}

func refDescriptor(m dex.MethodRef) string {
	var b strings.Builder
	b.WriteByte('(')
	for _, p := range m.Params {
		b.WriteString(string(p))
	}
	b.WriteByte(')')
	b.WriteString(string(m.Ret))
	return b.String()
}

func refMethodSig(m *dex.MethodRef) string {
	return refT(m.Class) + "." + m.Name + ":" + refDescriptor(*m)
}

func refFieldSig(f *dex.FieldRef) string {
	return refT(f.Class) + "." + f.Name + ":" + string(f.Type)
}

var refFlagNames = []struct {
	bit  dex.AccessFlags
	name string
}{
	{dex.AccPublic, "PUBLIC"},
	{dex.AccPrivate, "PRIVATE"},
	{dex.AccProtected, "PROTECTED"},
	{dex.AccStatic, "STATIC"},
	{dex.AccFinal, "FINAL"},
	{dex.AccInterface, "INTERFACE"},
	{dex.AccAbstract, "ABSTRACT"},
	{dex.AccConstructor, "CONSTRUCTOR"},
}

func refFlags(f dex.AccessFlags) string {
	var names []string
	for _, fn := range refFlagNames {
		if f&fn.bit == fn.bit {
			names = append(names, fn.name)
		}
	}
	return fmt.Sprintf("0x%04x (%s)", uint32(f), strings.Join(names, " "))
}

var refMnemonics = map[dex.Op]string{
	dex.OpNop: "nop", dex.OpConst: "const/16", dex.OpConstString: "const-string",
	dex.OpConstClass: "const-class", dex.OpConstNull: "const/4", dex.OpMove: "move",
	dex.OpMoveResult: "move-result", dex.OpNewInstance: "new-instance",
	dex.OpNewArray: "new-array", dex.OpInvokeVirtual: "invoke-virtual",
	dex.OpInvokeDirect: "invoke-direct", dex.OpInvokeStatic: "invoke-static",
	dex.OpInvokeInterface: "invoke-interface", dex.OpInvokeSuper: "invoke-super",
	dex.OpIGet: "iget", dex.OpIPut: "iput", dex.OpSGet: "sget", dex.OpSPut: "sput",
	dex.OpAGet: "aget", dex.OpAPut: "aput", dex.OpAdd: "add-int", dex.OpSub: "sub-int",
	dex.OpMul: "mul-int", dex.OpDiv: "div-int", dex.OpRem: "rem-int", dex.OpAnd: "and-int",
	dex.OpOr: "or-int", dex.OpXor: "xor-int", dex.OpAddLit: "add-int/lit8",
	dex.OpIfEq: "if-eq", dex.OpIfNe: "if-ne", dex.OpIfLt: "if-lt", dex.OpIfGe: "if-ge",
	dex.OpIfGt: "if-gt", dex.OpIfLe: "if-le", dex.OpIfEqz: "if-eqz", dex.OpIfNez: "if-nez",
	dex.OpGoto: "goto", dex.OpReturn: "return", dex.OpReturnVoid: "return-void",
	dex.OpCheckCast: "check-cast", dex.OpInstanceOf: "instance-of", dex.OpThrow: "throw",
}

func refMnemonic(o dex.Op) string {
	if m, ok := refMnemonics[o]; ok {
		return m
	}
	return fmt.Sprintf("op(%d)", int(o))
}

func refTypeSuffix(t dex.TypeDesc) string {
	switch {
	case t.IsRef():
		return "-object"
	case t == dex.Long || t == dex.Double:
		return "-wide"
	case t == dex.Bool:
		return "-boolean"
	default:
		return ""
	}
}

// refFormat is the original Sprintf instruction renderer.
func refFormat(in *dex.Instruction) string {
	reg := func(r int) string { return fmt.Sprintf("v%d", r) }
	switch in.Op {
	case dex.OpNop:
		return "nop"
	case dex.OpConst:
		return fmt.Sprintf("const/16 %s, #int %d", reg(in.A), in.Lit)
	case dex.OpConstString:
		return fmt.Sprintf("const-string %s, %q", reg(in.A), in.Str)
	case dex.OpConstClass:
		return fmt.Sprintf("const-class %s, %s", reg(in.A), in.Type)
	case dex.OpConstNull:
		return fmt.Sprintf("const/4 %s, #null", reg(in.A))
	case dex.OpMove:
		return fmt.Sprintf("move %s, %s", reg(in.A), reg(in.B))
	case dex.OpMoveResult:
		return fmt.Sprintf("move-result %s", reg(in.A))
	case dex.OpNewInstance:
		return fmt.Sprintf("new-instance %s, %s", reg(in.A), in.Type)
	case dex.OpNewArray:
		return fmt.Sprintf("new-array %s, %s, %s", reg(in.A), reg(in.B), in.Type)
	case dex.OpInvokeVirtual, dex.OpInvokeDirect, dex.OpInvokeStatic, dex.OpInvokeInterface, dex.OpInvokeSuper:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = reg(a)
		}
		return fmt.Sprintf("%s {%s}, %s", refMnemonic(in.Op), strings.Join(args, ", "), refMethodSig(in.Method))
	case dex.OpIGet:
		return fmt.Sprintf("iget%s %s, %s, %s", refTypeSuffix(in.Field.Type), reg(in.A), reg(in.B), refFieldSig(in.Field))
	case dex.OpIPut:
		return fmt.Sprintf("iput%s %s, %s, %s", refTypeSuffix(in.Field.Type), reg(in.A), reg(in.B), refFieldSig(in.Field))
	case dex.OpSGet:
		return fmt.Sprintf("sget%s %s, %s", refTypeSuffix(in.Field.Type), reg(in.A), refFieldSig(in.Field))
	case dex.OpSPut:
		return fmt.Sprintf("sput%s %s, %s", refTypeSuffix(in.Field.Type), reg(in.A), refFieldSig(in.Field))
	case dex.OpAGet:
		return fmt.Sprintf("aget %s, %s, %s", reg(in.A), reg(in.B), reg(in.C))
	case dex.OpAPut:
		return fmt.Sprintf("aput %s, %s, %s", reg(in.A), reg(in.B), reg(in.C))
	case dex.OpAdd, dex.OpSub, dex.OpMul, dex.OpDiv, dex.OpRem, dex.OpAnd, dex.OpOr, dex.OpXor:
		return fmt.Sprintf("%s %s, %s, %s", refMnemonic(in.Op), reg(in.A), reg(in.B), reg(in.C))
	case dex.OpAddLit:
		return fmt.Sprintf("add-int/lit8 %s, %s, #int %d", reg(in.A), reg(in.B), in.Lit)
	case dex.OpIfEq, dex.OpIfNe, dex.OpIfLt, dex.OpIfGe, dex.OpIfGt, dex.OpIfLe:
		return fmt.Sprintf("%s %s, %s, %04x", refMnemonic(in.Op), reg(in.A), reg(in.B), in.Target)
	case dex.OpIfEqz, dex.OpIfNez:
		return fmt.Sprintf("%s %s, %04x", refMnemonic(in.Op), reg(in.A), in.Target)
	case dex.OpGoto:
		return fmt.Sprintf("goto %04x", in.Target)
	case dex.OpReturn:
		return fmt.Sprintf("return %s", reg(in.A))
	case dex.OpReturnVoid:
		return "return-void"
	case dex.OpCheckCast:
		return fmt.Sprintf("check-cast %s, %s", reg(in.A), in.Type)
	case dex.OpInstanceOf:
		return fmt.Sprintf("instance-of %s, %s, %s", reg(in.A), reg(in.B), in.Type)
	case dex.OpThrow:
		return fmt.Sprintf("throw %s", reg(in.A))
	}
	return refMnemonic(in.Op)
}

// refDisassemble is the original Sprintf dump renderer: it returns the
// dump lines, the per-line method attribution, the method table and the
// class spans.
func refDisassemble(f *dex.File) (lines []string, methodOfLine []int, methods []dex.MethodRef, spans []ClassSpan) {
	emit := func(methodIdx int, format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
		methodOfLine = append(methodOfLine, methodIdx)
	}
	for ci, c := range f.Classes() {
		span := ClassSpan{Name: c.Name, Start: len(lines)}
		emit(-1, "Class #%d            -", ci)
		emit(-1, "  Class descriptor  : '%s'", refT(c.Name))
		emit(-1, "  Access flags      : %s", refFlags(c.Flags))
		super := ""
		if c.Super != "" {
			super = refT(c.Super)
		}
		emit(-1, "  Superclass        : '%s'", super)
		emit(-1, "  Interfaces        -")
		for ii, iface := range c.Interfaces {
			emit(-1, "    #%d              : '%s'", ii, refT(iface))
		}
		emitMethods := func(header string, methods_ []*dex.Method) {
			emit(-1, "  %s   -", header)
			for mi, m := range methods_ {
				midx := len(methods)
				methods = append(methods, m.Ref)
				emit(-1, "    #%d              : (in %s)", mi, refT(c.Name))
				emit(midx, "      name          : '%s'", m.Ref.Name)
				emit(midx, "      type          : '%s'", refDescriptor(m.Ref))
				emit(midx, "      access        : %s", refFlags(m.Flags))
				if m.Flags&dex.AccAbstract != 0 {
					continue
				}
				emit(midx, "      insns size    : %d 16-bit code units", len(m.Code))
				for pc := range m.Code {
					emit(midx, "        |%04x: %s", pc, refFormat(&m.Code[pc]))
				}
			}
		}
		emitMethods("Direct methods ", c.DirectMethods())
		emitMethods("Virtual methods", c.VirtualMethods())
		span.End = len(lines)
		spans = append(spans, span)
	}
	return lines, methodOfLine, methods, spans
}

// refBuildIndex is the original multi-pass tokenizer: up to seven
// strings.Contains passes plus LastIndex per line.
func refBuildIndex(lines []string) *Index {
	x := newIndex(len(lines))
	for i, line := range lines {
		refAddLine(x, int32(i), line)
	}
	return x
}

func refAddLine(x *Index, n int32, line string) {
	for i := 0; i < len(line); i++ {
		if line[i] != 'L' {
			continue
		}
		j := strings.IndexByte(line[i:], ';')
		if j < 0 {
			break
		}
		x.add(x.classUse, line[i:i+j+1], n)
	}
	tail := ""
	if k := strings.LastIndex(line, ", "); k >= 0 {
		tail = line[k+2:]
	}
	quoted := strings.IndexByte(line, '"') >= 0
	if strings.Contains(line, "invoke-") && tail != "" {
		x.add(x.invokeBySig, tail, n)
		if p := strings.Index(tail, ";."); p >= 0 {
			needle := tail[p+1:]
			x.add(x.invokeByName, needle, n)
			if c := strings.IndexByte(needle, ':'); c >= 0 {
				x.add(x.invokeByNameP, needle[:c+1], n)
			}
		}
		if strings.Contains(line, "invoke-direct") {
			if c := strings.IndexByte(tail, ':'); c >= 0 {
				x.add(x.ctorByPrefix, tail[:c+1], n)
			}
		}
		if quoted {
			x.addSide(&x.oddInvokes, n)
		}
	}
	if strings.Contains(line, "new-instance") && tail != "" {
		x.add(x.newInstance, tail, n)
	}
	if strings.Contains(line, "const-class") && tail != "" {
		x.add(x.constClass, tail, n)
	}
	if strings.Contains(line, "const-string") {
		i := strings.IndexByte(line, '"')
		j := strings.LastIndexByte(line, '"')
		if i >= 0 && j > i {
			val := line[i+1 : j]
			x.add(x.constString, val, n)
			if strings.ContainsAny(val, `\"`) {
				x.addSide(&x.oddStrings, n)
			}
		}
	}
	if strings.Contains(line, "iget") || strings.Contains(line, "iput") ||
		strings.Contains(line, "sget") || strings.Contains(line, "sput") {
		if tail != "" {
			x.add(x.fieldBySig, tail, n)
		}
		if quoted {
			x.addSide(&x.oddFields, n)
		}
	}
	if quoted && strings.Contains(line, "invoke-direct") {
		x.addSide(&x.oddCtors, n)
	}
}
