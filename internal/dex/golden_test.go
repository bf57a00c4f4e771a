package dex

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// The dexdump rendering is what bytecode search greps and what the
// postings charge is computed from, so it is pinned here against fixed
// strings: one fixture per opcode, plus the literal, target and flag
// edge cases the generator rarely or never emits.

var (
	goldenMethod = NewMethodRef("com.foo.Bar", "run", Void, Int, StringT, Array(Int))
	goldenCtor   = NewMethodRef("com.foo.Bar$Inner", "<init>", Void, T("com.foo.Bar"))
	goldenNoArgs = NewMethodRef("a.B", "now", Long)
	fieldInt     = NewFieldRef("com.foo.Bar", "port", Int)
	fieldObj     = NewFieldRef("com.foo.Bar", "name", StringT)
	fieldArr     = NewFieldRef("com.foo.Bar", "ids", Array(Int))
	fieldWide    = NewFieldRef("com.foo.Bar", "big", Long)
	fieldDouble  = NewFieldRef("com.foo.Bar", "ratio", Double)
	fieldBool    = NewFieldRef("com.foo.Bar", "on", Bool)
)

var goldenInstructions = []struct {
	in   Instruction
	want string
}{
	{Instruction{Op: OpNop}, "nop"},
	{Instruction{Op: OpConst, A: 1, Lit: -42}, "const/16 v1, #int -42"},
	{Instruction{Op: OpConst, A: 0, Lit: math.MinInt64}, "const/16 v0, #int -9223372036854775808"},
	{Instruction{Op: OpConstString, A: 2, Str: "AES/ECB/PKCS5Padding"}, `const-string v2, "AES/ECB/PKCS5Padding"`},
	{Instruction{Op: OpConstString, A: 2, Str: `say "hi"\ ünï ☃`}, `const-string v2, "say \"hi\"\\ ünï ☃"`},
	{Instruction{Op: OpConstString, A: 3, Str: "tab\t nul\x00 bad\xff soft\u00ad"}, `const-string v3, "tab\t nul\x00 bad\xff soft\u00ad"`},
	{Instruction{Op: OpConstString, A: 4}, `const-string v4, ""`},
	{Instruction{Op: OpConstClass, A: 3, Type: T("com.foo.Bar")}, "const-class v3, Lcom/foo/Bar;"},
	{Instruction{Op: OpConstNull, A: 4}, "const/4 v4, #null"},
	{Instruction{Op: OpMove, A: 5, B: 6}, "move v5, v6"},
	{Instruction{Op: OpMoveResult, A: 7}, "move-result v7"},
	{Instruction{Op: OpNewInstance, A: 0, Type: T("com.foo.Bar$Inner")}, "new-instance v0, Lcom/foo/Bar$Inner;"},
	{Instruction{Op: OpNewArray, A: 1, B: 2, Type: Array(Int)}, "new-array v1, v2, [I"},
	{Instruction{Op: OpInvokeVirtual, Method: &goldenMethod, Args: []int{0, 1, 2, 3}},
		"invoke-virtual {v0, v1, v2, v3}, Lcom/foo/Bar;.run:(ILjava/lang/String;[I)V"},
	{Instruction{Op: OpInvokeDirect, Method: &goldenCtor, Args: []int{4, 5}},
		"invoke-direct {v4, v5}, Lcom/foo/Bar$Inner;.<init>:(Lcom/foo/Bar;)V"},
	{Instruction{Op: OpInvokeStatic, Method: &goldenNoArgs}, "invoke-static {}, La/B;.now:()J"},
	{Instruction{Op: OpInvokeInterface, Method: &goldenMethod, Args: []int{12}},
		"invoke-interface {v12}, Lcom/foo/Bar;.run:(ILjava/lang/String;[I)V"},
	{Instruction{Op: OpInvokeSuper, Method: &goldenCtor, Args: []int{0}},
		"invoke-super {v0}, Lcom/foo/Bar$Inner;.<init>:(Lcom/foo/Bar;)V"},
	{Instruction{Op: OpIGet, A: 0, B: 1, Field: &fieldObj}, "iget-object v0, v1, Lcom/foo/Bar;.name:Ljava/lang/String;"},
	{Instruction{Op: OpIGet, A: 0, B: 1, Field: &fieldArr}, "iget-object v0, v1, Lcom/foo/Bar;.ids:[I"},
	{Instruction{Op: OpIPut, A: 2, B: 3, Field: &fieldInt}, "iput v2, v3, Lcom/foo/Bar;.port:I"},
	{Instruction{Op: OpSGet, A: 4, Field: &fieldWide}, "sget-wide v4, Lcom/foo/Bar;.big:J"},
	{Instruction{Op: OpSGet, A: 4, Field: &fieldDouble}, "sget-wide v4, Lcom/foo/Bar;.ratio:D"},
	{Instruction{Op: OpSPut, A: 5, Field: &fieldBool}, "sput-boolean v5, Lcom/foo/Bar;.on:Z"},
	{Instruction{Op: OpAGet, A: 0, B: 1, C: 2}, "aget v0, v1, v2"},
	{Instruction{Op: OpAPut, A: 3, B: 4, C: 5}, "aput v3, v4, v5"},
	{Instruction{Op: OpAdd, A: 0, B: 1, C: 2}, "add-int v0, v1, v2"},
	{Instruction{Op: OpSub, A: 0, B: 1, C: 2}, "sub-int v0, v1, v2"},
	{Instruction{Op: OpMul, A: 0, B: 1, C: 2}, "mul-int v0, v1, v2"},
	{Instruction{Op: OpDiv, A: 0, B: 1, C: 2}, "div-int v0, v1, v2"},
	{Instruction{Op: OpRem, A: 0, B: 1, C: 2}, "rem-int v0, v1, v2"},
	{Instruction{Op: OpAnd, A: 0, B: 1, C: 2}, "and-int v0, v1, v2"},
	{Instruction{Op: OpOr, A: 0, B: 1, C: 2}, "or-int v0, v1, v2"},
	{Instruction{Op: OpXor, A: 10, B: 11, C: 12}, "xor-int v10, v11, v12"},
	{Instruction{Op: OpAddLit, A: 1, B: 1, Lit: -1}, "add-int/lit8 v1, v1, #int -1"},
	{Instruction{Op: OpIfEq, A: 0, B: 1, Target: 0}, "if-eq v0, v1, 0000"},
	{Instruction{Op: OpIfNe, A: 0, B: 1, Target: 0x1f}, "if-ne v0, v1, 001f"},
	{Instruction{Op: OpIfLt, A: 0, B: 1, Target: 0xffff}, "if-lt v0, v1, ffff"},
	{Instruction{Op: OpIfGe, A: 0, B: 1, Target: 0x12345}, "if-ge v0, v1, 12345"},
	{Instruction{Op: OpIfGt, A: 0, B: 1, Target: -1}, "if-gt v0, v1, -001"},
	{Instruction{Op: OpIfLe, A: 0, B: 1, Target: -0x12345}, "if-le v0, v1, -12345"},
	{Instruction{Op: OpIfEqz, A: 2, Target: 0xabc}, "if-eqz v2, 0abc"},
	{Instruction{Op: OpIfNez, A: 2, Target: 0x10000}, "if-nez v2, 10000"},
	{Instruction{Op: OpGoto, Target: 7}, "goto 0007"},
	{Instruction{Op: OpGoto, Target: math.MinInt64}, "goto -8000000000000000"},
	{Instruction{Op: OpReturn, A: 0}, "return v0"},
	{Instruction{Op: OpReturnVoid}, "return-void"},
	{Instruction{Op: OpCheckCast, A: 0, Type: T("com.foo.Bar")}, "check-cast v0, Lcom/foo/Bar;"},
	{Instruction{Op: OpInstanceOf, A: 0, B: 1, Type: Array(StringT)}, "instance-of v0, v1, [Ljava/lang/String;"},
	{Instruction{Op: OpThrow, A: 3}, "throw v3"},
	{Instruction{Op: OpMove, A: -1, B: 70000}, "move v-1, v70000"},
	// Opcodes outside the set fall back to "op(N)" and render no operands.
	{Instruction{Op: Op(99), A: 1, Str: "x"}, "op(99)"},
	{Instruction{Op: Op(0)}, "op(0)"},
	{Instruction{Op: Op(-3)}, "op(-3)"},
}

func TestGoldenInstructionRendering(t *testing.T) {
	covered := make(map[Op]bool)
	for _, g := range goldenInstructions {
		covered[g.in.Op] = true
		if got := g.in.Format(); got != g.want {
			t.Errorf("Format(%v) = %q, want %q", g.in.Op, got, g.want)
		}
		if got := string(g.in.AppendFormat([]byte("|0000: "))); got != "|0000: "+g.want {
			t.Errorf("AppendFormat(%v) = %q, want the rendering after the prefix", g.in.Op, got)
		}
	}
	for op := OpNop; op <= OpThrow; op++ {
		if !covered[op] {
			t.Errorf("no golden fixture for opcode %d (%s)", int(op), op.Mnemonic())
		}
	}
	if n := int(OpThrow - OpNop + 1); n != 43 {
		t.Errorf("opcode set has %d opcodes, golden table expects 43", n)
	}
}

// goldenFlagNames is the fixed dexdump name of each access flag bit, in
// rendering order.
var goldenFlagNames = []struct {
	bit  AccessFlags
	want string
}{
	{AccPublic, "0x0001 (PUBLIC)"},
	{AccPrivate, "0x0002 (PRIVATE)"},
	{AccProtected, "0x0004 (PROTECTED)"},
	{AccStatic, "0x0008 (STATIC)"},
	{AccFinal, "0x0010 (FINAL)"},
	{AccInterface, "0x0200 (INTERFACE)"},
	{AccAbstract, "0x0400 (ABSTRACT)"},
	{AccConstructor, "0x10000 (CONSTRUCTOR)"},
}

func TestGoldenAccessFlags(t *testing.T) {
	fixed := []struct {
		give AccessFlags
		want string
	}{
		{0, "0x0000 ()"},
		{0x0100, "0x0100 ()"},
		{AccPublic | 0x0100, "0x0101 (PUBLIC)"},
		{AccPublic | AccStatic | AccFinal, "0x0019 (PUBLIC STATIC FINAL)"},
		{AccPublic | AccConstructor, "0x10001 (PUBLIC CONSTRUCTOR)"},
		{AccPublic | AccInterface | AccAbstract, "0x0601 (PUBLIC INTERFACE ABSTRACT)"},
		{0x1061f, "0x1061f (PUBLIC PRIVATE PROTECTED STATIC FINAL INTERFACE ABSTRACT CONSTRUCTOR)"},
		{0xffffffff, "0xffffffff (PUBLIC PRIVATE PROTECTED STATIC FINAL INTERFACE ABSTRACT CONSTRUCTOR)"},
	}
	for _, f := range goldenFlagNames {
		fixed = append(fixed, struct {
			give AccessFlags
			want string
		}{f.bit, f.want})
	}
	for _, f := range fixed {
		if got := f.give.String(); got != f.want {
			t.Errorf("String(%#x) = %q, want %q", uint32(f.give), got, f.want)
		}
	}

	// Every combination of the eight named bits: the hex value, then the
	// fixed names of the set bits in table order.
	for mask := 0; mask < 1<<len(goldenFlagNames); mask++ {
		var flags AccessFlags
		var names []string
		for i, f := range goldenFlagNames {
			if mask&(1<<i) != 0 {
				flags |= f.bit
				names = append(names, f.want[strings.IndexByte(f.want, '(')+1:len(f.want)-1])
			}
		}
		want := fmt.Sprintf("0x%04x (%s)", uint32(flags), strings.Join(names, " "))
		if got := flags.String(); got != want {
			t.Errorf("String(%#x) = %q, want %q", uint32(flags), got, want)
		}
		if got := string(flags.AppendString([]byte("access: "))); got != "access: "+want {
			t.Errorf("AppendString(%#x) = %q", uint32(flags), got)
		}
	}
}

func TestGoldenSignatures(t *testing.T) {
	for _, tt := range []struct{ got, want string }{
		{string(T("com.foo.Bar$Inner")), "Lcom/foo/Bar$Inner;"},
		{string(T("")), "L;"},
		{string(AppendT([]byte("x "), "a.b")), "x La/b;"},
		{goldenMethod.Descriptor(), "(ILjava/lang/String;[I)V"},
		{goldenNoArgs.Descriptor(), "()J"},
		{goldenMethod.DexSignature(), "Lcom/foo/Bar;.run:(ILjava/lang/String;[I)V"},
		{string(goldenCtor.AppendDexSignature([]byte("> "))), "> Lcom/foo/Bar$Inner;.<init>:(Lcom/foo/Bar;)V"},
		{fieldObj.DexSignature(), "Lcom/foo/Bar;.name:Ljava/lang/String;"},
		{string(fieldArr.AppendDexSignature(nil)), "Lcom/foo/Bar;.ids:[I"},
	} {
		if tt.got != tt.want {
			t.Errorf("rendered %q, want %q", tt.got, tt.want)
		}
	}
}
