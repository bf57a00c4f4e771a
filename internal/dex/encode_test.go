package dex

import (
	"bytes"
	"strings"
	"testing"
)

// buildSampleFile constructs a file exercising every instruction shape.
func buildSampleFile(t *testing.T) *File {
	t.Helper()
	f := NewFile()

	runnable := NewMethodRef("java.lang.Runnable", "run", Void)
	cb := NewClass("com.sample.Worker").Implements("java.lang.Runnable").
		Field("count", Int).
		StaticField("NAME", StringT)

	ctor := cb.Constructor(Int)
	objInit := NewMethodRef("java.lang.Object", "<init>", Void)
	ctor.InvokeDirect(objInit, ctor.This()).
		IPut(ctor.Param(0), ctor.This(), NewFieldRef("com.sample.Worker", "count", Int)).
		ReturnVoid().Done()

	run := cb.Method("run", Void)
	r1, r2, r3 := run.Reg(), run.Reg(), run.Reg()
	run.ConstString(r1, "hello").
		Const(r2, 7).
		ConstNull(r3).
		ConstClass(r3, "com.sample.Worker").
		Move(r2, r2).
		New(r3, "java.lang.Object").
		InvokeDirect(objInit, r3).
		NewArray(r3, r2, Int).
		AGet(r2, r3, r2).
		APut(r2, r3, r2).
		Binop(OpAdd, r2, r2, r2).
		AddLit(r2, r2, 3).
		IGet(r2, run.This(), NewFieldRef("com.sample.Worker", "count", Int)).
		SGet(r1, NewFieldRef("com.sample.Worker", "NAME", StringT)).
		SPut(r1, NewFieldRef("com.sample.Worker", "NAME", StringT)).
		CheckCast(r3, "java.lang.Object").
		Label("again").
		If(OpIfEq, r2, r2, "done").
		IfZ(OpIfNez, r2, "again").
		InvokeInterface(runnable, run.This()).
		MoveResult(r2).
		Goto("done").
		Label("done").
		ReturnVoid().Done()

	clinit := cb.StaticInitializer()
	rr := clinit.Reg()
	clinit.ConstString(rr, "worker").
		SPut(rr, NewFieldRef("com.sample.Worker", "NAME", StringT)).
		ReturnVoid().Done()

	if err := f.AddClass(cb.Build()); err != nil {
		t.Fatal(err)
	}

	iface := NewInterface("com.sample.Task").AbstractMethod("exec", Int, StringT)
	if err := f.AddClass(iface.Build()); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := buildSampleFile(t)
	data := Encode(f)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}

	if len(got.Classes()) != len(f.Classes()) {
		t.Fatalf("classes = %d, want %d", len(got.Classes()), len(f.Classes()))
	}
	for i, want := range f.Classes() {
		gc := got.Classes()[i]
		if gc.Name != want.Name || gc.Super != want.Super || gc.Flags != want.Flags {
			t.Errorf("class %d header mismatch: %+v vs %+v", i, gc, want)
		}
		if len(gc.Interfaces) != len(want.Interfaces) {
			t.Errorf("class %d interfaces = %v, want %v", i, gc.Interfaces, want.Interfaces)
		}
		if len(gc.Fields) != len(want.Fields) {
			t.Errorf("class %d fields = %d, want %d", i, len(gc.Fields), len(want.Fields))
		}
		if len(gc.Methods) != len(want.Methods) {
			t.Fatalf("class %d methods = %d, want %d", i, len(gc.Methods), len(want.Methods))
		}
		for j, wm := range want.Methods {
			gm := gc.Methods[j]
			if gm.Ref.SootSignature() != wm.Ref.SootSignature() {
				t.Errorf("method %d ref = %s, want %s", j, gm.Ref, wm.Ref)
			}
			if gm.Registers != wm.Registers || gm.Ins != wm.Ins || gm.Flags != wm.Flags {
				t.Errorf("method %s header mismatch", wm.Ref)
			}
			if len(gm.Code) != len(wm.Code) {
				t.Fatalf("method %s code = %d, want %d", wm.Ref, len(gm.Code), len(wm.Code))
			}
			for k := range wm.Code {
				if gm.Code[k].Format() != wm.Code[k].Format() {
					t.Errorf("method %s instr %d: %q vs %q",
						wm.Ref, k, gm.Code[k].Format(), wm.Code[k].Format())
				}
			}
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	f := buildSampleFile(t)
	a := Encode(f)
	b := Encode(f)
	if !bytes.Equal(a, b) {
		t.Error("Encode must be deterministic")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) should fail")
	}
	if _, err := Decode([]byte("BAD!")); err == nil {
		t.Error("Decode(bad magic) should fail")
	}
	data := Encode(buildSampleFile(t))
	if _, err := Decode(data[:len(data)/2]); err == nil {
		t.Error("Decode(truncated) should fail")
	}
}

// fileWith wraps one instruction in a single-method class.
func fileWith(in Instruction) *File {
	f := NewFile()
	_ = f.AddClass(&Class{
		Name:  "com.bad.C",
		Super: "java.lang.Object",
		Methods: []*Method{{
			Ref:  NewMethodRef("com.bad.C", "m", Void),
			Code: []Instruction{in, {Op: OpReturnVoid}},
		}},
	})
	return f
}

func TestDecodeRejectsMismatchedOperands(t *testing.T) {
	target := NewMethodRef("a.B", "c", Void)
	field := NewFieldRef("a.B", "f", Int)
	for _, tt := range []struct {
		name string
		in   Instruction
		want string
	}{
		{"invoke without method", Instruction{Op: OpInvokeVirtual, Args: []int{0}}, "invoke-virtual without a method operand"},
		{"invoke-static without method", Instruction{Op: OpInvokeStatic, Field: &field}, "invoke-static without a method operand"},
		{"iget without field", Instruction{Op: OpIGet, Method: &target}, "iget without a field operand"},
		{"iput without field", Instruction{Op: OpIPut}, "iput without a field operand"},
		{"sget without field", Instruction{Op: OpSGet}, "sget without a field operand"},
		{"sput without field", Instruction{Op: OpSPut}, "sput without a field operand"},
		{"unknown opcode", Instruction{Op: Op(99)}, "unknown opcode 99"},
		{"zero opcode", Instruction{Op: 0}, "unknown opcode 0"},
	} {
		_, err := Decode(Encode(fileWith(tt.in)))
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: Decode error = %v, want %q", tt.name, err, tt.want)
		}
	}
	ok := fileWith(Instruction{Op: OpInvokeStatic, Method: &target})
	if _, err := Decode(Encode(ok)); err != nil {
		t.Errorf("well-formed invoke rejected: %v", err)
	}
}
