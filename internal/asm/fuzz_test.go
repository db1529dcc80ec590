package asm_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/workloads"
)

// FuzzAssemble checks that the assembler turns any input into a program or
// an error and never panics, and that every program it accepts is well
// formed (branch targets in range, registers in the file). The corpus
// starts from the eight benchmark kernels.
//
//	go test ./internal/asm -run '^$' -fuzz FuzzAssemble -fuzztime 30s
func FuzzAssemble(f *testing.F) {
	for _, b := range workloads.All() {
		f.Add(b.K.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Assemble("fuzz", src)
		if err != nil {
			if p != nil {
				t.Fatalf("Assemble returned both a program and error %v", err)
			}
			return
		}
		if p == nil || len(p.Insts) == 0 {
			t.Fatal("Assemble accepted the source but returned no instructions")
		}
		for i, in := range p.Insts {
			if in.Rd >= isa.NumRegs || in.Rs1 >= isa.NumRegs || in.Rs2 >= isa.NumRegs {
				t.Fatalf("inst %d (%v): register out of range", i, in)
			}
			if isa.IsBranch(in.Op) && in.Op != isa.JR && (in.Imm < 0 || int(in.Imm) > len(p.Insts)) {
				t.Fatalf("inst %d (%v): branch target out of range", i, in)
			}
		}
	})
}
