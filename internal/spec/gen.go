package spec

import (
	"fmt"
	"strconv"

	"repro/internal/guest"
	"repro/internal/interp"
	"repro/internal/isa"
)

// Register conventions of generated code. Sites may clobber r1..r6;
// the helper procedure uses r4/r5; filler uses r13/r12.
const (
	regZero   = 0  // always 0
	regIter   = 14 // driver iteration counter
	regLimit  = 10 // driver iteration limit
	regPhase  = 15 // current phase's parameter-table base
	regFillA  = 13 // filler scratch
	regFillB  = 12 // filler scratch
	regBound0 = 11 // phase boundary registers
	regBound1 = 9
	regBound2 = 8
)

// scaleCount converts a paper-unit count to an effective count at the
// given scale, never below 1.
func scaleCount(x, scale float64) int32 {
	v := float64(x * scale)
	if v < 1 {
		return 1
	}
	const maxCount = 1 << 30
	if v > maxCount {
		return maxCount
	}
	return int32(v + 0.5)
}

// probParam converts a probability to the tape-comparison constant.
func probParam(p float64) uint32 {
	v := int(float64(p*interp.ProbScale) + 0.5)
	if v < 0 {
		v = 0
	}
	if v > interp.ProbScale-1 {
		v = interp.ProbScale - 1
	}
	return uint32(v)
}

// maxPhases is the fixed phase capacity of generated programs. Every
// behaviour is padded to this many phases so that the emitted code — and
// with it every block address — is identical across inputs regardless of
// how many phases each input actually uses.
const maxPhases = 4

// wideLoad emits a fixed three-instruction constant load so that code
// length never depends on the constant's magnitude (which differs
// between inputs).
func wideLoad(gb *guest.Builder, rd uint8, v int32) {
	u := uint32(v)
	gb.Emit(isa.Inst{Op: isa.OpLoadi, Rd: rd, Imm: int32(u >> 26)})
	gb.Emit(isa.Inst{Op: isa.OpLuhi, Rd: rd, Imm: int32(u >> 13 & 0x1FFF)})
	gb.Emit(isa.Inst{Op: isa.OpLuhi, Rd: rd, Imm: int32(u & 0x1FFF)})
}

// generate emits the benchmark program for one behaviour model.
func generate(b *Benchmark, bh *Behavior, scale float64) (*guest.Image, error) {
	nSites := len(b.Sites)
	gb := guest.NewBuilder(b.Name)

	// Canonical 4-phase schedule: unused trailing bounds sit beyond the
	// iteration limit so their phases never activate, and their param
	// rows repeat the last real row.
	const neverBound = int32(1 << 30)
	bounds := [maxPhases - 1]int32{neverBound, neverBound, neverBound}
	for i, bound := range bh.Bounds {
		bounds[i] = scaleCount(bound, scale)
	}
	rows := make([][]float64, maxPhases)
	for p := 0; p < maxPhases; p++ {
		if p < len(bh.Params) {
			rows[p] = bh.Params[p]
		} else {
			rows[p] = bh.Params[len(bh.Params)-1]
		}
	}

	// Data layout: parameter table, then the three phase-boundary
	// words, then any switch jump tables. Boundaries are input data, so
	// they live in the data segment (like a real program's input-derived
	// state), keeping the code segment bit-identical across inputs.
	paramsSize := maxPhases * nSites
	boundsOff := paramsSize

	main := gb.Here("main")
	gb.SetEntry(main)
	gb.LoadImm(regZero, 0)
	gb.LoadImm(regIter, 0)
	wideLoad(gb, regLimit, scaleCount(b.Iters, scale))
	boundRegs := []uint8{regBound0, regBound1, regBound2}
	for i, reg := range boundRegs {
		gb.Emit(isa.Inst{Op: isa.OpLoad, Rd: reg, Rs: regZero, Imm: int32(boundsOff + i)})
	}
	gb.LoadImm(regFillA, 0x1234)
	gb.LoadImm(regFillB, 0x5e37)

	driverTop := gb.Here("driver_top")
	sites := gb.NewLabel("sites")

	// Phase selection: compare the iteration counter against the
	// boundary registers and set regPhase to phase*nSites.
	sel := make([]guest.Label, maxPhases-1)
	for i := range sel {
		sel[i] = gb.NewLabel("phase" + strconv.Itoa(i))
	}
	for i := 0; i < maxPhases-1; i++ {
		gb.Branch(isa.OpBlt, regIter, boundRegs[i], sel[i])
	}
	gb.Emit(isa.Inst{Op: isa.OpLoadi, Rd: regPhase, Imm: int32((maxPhases - 1) * nSites)})
	gb.Jump(sites)
	for i := maxPhases - 2; i >= 0; i-- {
		gb.Bind(sel[i])
		gb.Emit(isa.Inst{Op: isa.OpLoadi, Rd: regPhase, Imm: int32(i * nSites)})
		gb.Jump(sites)
	}
	gb.Bind(sites)
	phases := maxPhases

	// Site bodies.
	var helper guest.Label
	needHelper := false
	for _, s := range b.Sites {
		if s.Kind == SiteCall {
			needHelper = true
		}
	}
	if needHelper {
		helper = gb.NewLabel("helper")
	}
	// Switch jump tables live after the boundary words in data memory.
	type swPatch struct {
		off     int      // data offset of this table
		targets []string // symbol names of the targets
	}
	type coldChain struct {
		start  guest.Label
		ret    guest.Label
		tblOff int
		blocks int
	}
	var patches []swPatch
	var coldChains []coldChain
	nextTbl := boundsOff + len(boundRegs)

	filler := func(n int, float bool) {
		if float {
			gb.FloatNops(n)
		} else {
			gb.Nops(n)
		}
	}

	for i, s := range b.Sites {
		off := int32(i)
		switch s.Kind {
		case SiteBranch:
			taken := gb.NewLabel(siteLabel(i, "_taken"))
			next := gb.NewLabel(siteLabel(i, "_next"))
			gb.In(1)
			gb.Emit(isa.Inst{Op: isa.OpLoad, Rd: 6, Rs: regPhase, Imm: off})
			gb.Branch(isa.OpBlt, 1, 6, taken)
			filler(s.Body, s.Float)
			gb.Jump(next)
			gb.Bind(taken)
			filler(s.Body, s.Float)
			gb.Bind(next)
		case SiteDiamond:
			takenArm := gb.NewLabel(siteLabel(i, "_t"))
			merge := gb.NewLabel(siteLabel(i, "_m"))
			gb.In(1)
			gb.Emit(isa.Inst{Op: isa.OpLoad, Rd: 6, Rs: regPhase, Imm: off})
			gb.Branch(isa.OpBlt, 1, 6, takenArm)
			filler(s.Body, s.Float)
			gb.Jump(merge)
			gb.Bind(takenArm)
			filler(s.Body, s.Float)
			gb.Jump(merge)
			gb.Bind(merge)
		case SiteGeoLoop:
			gb.Emit(isa.Inst{Op: isa.OpLoad, Rd: 6, Rs: regPhase, Imm: off})
			top := gb.Here(siteLabel(i, "_top"))
			filler(s.Body, s.Float)
			gb.In(1)
			gb.Branch(isa.OpBlt, 1, 6, top)
		case SiteCountedLoop:
			gb.Emit(isa.Inst{Op: isa.OpLoad, Rd: 2, Rs: regPhase, Imm: off})
			gb.In(1)
			gb.Emit(isa.Inst{Op: isa.OpLoadi, Rd: 3, Imm: 7})
			gb.Emit(isa.Inst{Op: isa.OpAnd, Rd: 1, Rs: 1, Rt: 3})
			gb.Emit(isa.Inst{Op: isa.OpAdd, Rd: 2, Rs: 2, Rt: 1})
			top := gb.Here(siteLabel(i, "_top"))
			filler(s.Body, s.Float)
			gb.Addi(2, 2, -1)
			gb.Branch(isa.OpBne, 2, regZero, top)
		case SiteCall:
			gb.Call(helper)
		case SiteColdCode:
			// The chain is far too large for PC-relative branches, so
			// entry and exit go through register-indirect jumps whose
			// targets live in the data segment (patched after layout,
			// like the switch tables). The chain itself is emitted
			// after the driver (see coldChains below).
			enter := gb.NewLabel(siteLabel(i, "_enter"))
			next := gb.NewLabel(siteLabel(i, "_next"))
			chainStart := siteLabel(i, "_cold")
			myTbl := nextTbl
			nextTbl += 2
			patches = append(patches, swPatch{off: myTbl, targets: []string{chainStart, siteLabel(i, "_next")}})
			gb.In(1)
			gb.Emit(isa.Inst{Op: isa.OpLoad, Rd: 6, Rs: regPhase, Imm: off})
			gb.Branch(isa.OpBlt, 1, 6, enter)
			gb.Jump(next)
			gb.Bind(enter)
			gb.Emit(isa.Inst{Op: isa.OpLoad, Rd: 2, Rs: regZero, Imm: int32(myTbl)})
			chainLbl := gb.NewLabel(chainStart)
			gb.JumpIndirect(2, chainLbl)
			gb.Bind(next)
			coldChains = append(coldChains, coldChain{
				start:  chainLbl,
				ret:    next,
				tblOff: myTbl,
				blocks: s.Body,
			})
		case SiteSwitch:
			hot := gb.NewLabel(siteLabel(i, "_hot"))
			next := gb.NewLabel(siteLabel(i, "_next"))
			tNames := make([]string, 3)
			targets := make([]guest.Label, 3)
			for j := range targets {
				tNames[j] = siteLabel(i, "_case"+strconv.Itoa(j))
				targets[j] = gb.NewLabel(tNames[j])
			}
			myTbl := nextTbl
			nextTbl += 3
			patches = append(patches, swPatch{off: myTbl, targets: tNames})

			gb.In(1)
			gb.Emit(isa.Inst{Op: isa.OpLoad, Rd: 6, Rs: regPhase, Imm: off})
			gb.Branch(isa.OpBlt, 1, 6, hot)
			// Cold path: pick case 1 or 2 by tape parity.
			gb.In(1)
			gb.Emit(isa.Inst{Op: isa.OpLoadi, Rd: 3, Imm: 1})
			gb.Emit(isa.Inst{Op: isa.OpAnd, Rd: 1, Rs: 1, Rt: 3})
			gb.Addi(1, 1, int32(myTbl+1))
			gb.Emit(isa.Inst{Op: isa.OpLoad, Rd: 2, Rs: 1, Imm: 0})
			gb.JumpIndirect(2, targets...)
			gb.Bind(hot)
			gb.Emit(isa.Inst{Op: isa.OpLoad, Rd: 2, Rs: regZero, Imm: int32(myTbl)})
			gb.JumpIndirect(2, targets...)
			for j := range targets {
				gb.Bind(targets[j])
				filler(s.Body, s.Float)
				gb.Jump(next)
			}
			gb.Bind(next)
		default:
			return nil, fmt.Errorf("spec: %s: unknown site kind %d", b.Name, s.Kind)
		}
	}

	// Driver tail.
	gb.Addi(regIter, regIter, 1)
	gb.Branch(isa.OpBlt, regIter, regLimit, driverTop)
	gb.Emit(isa.Inst{Op: isa.OpHalt})

	// Shared helper: a stable 50/50 tape-driven branch plus filler.
	if needHelper {
		gb.Bind(helper)
		gb.In(4)
		gb.Emit(isa.Inst{Op: isa.OpLoadi, Rd: 5, Imm: interp.ProbScale / 2})
		h1 := gb.NewLabel("helper_t")
		gb.Branch(isa.OpBlt, 4, 5, h1)
		gb.Nops(2)
		gb.Ret()
		gb.Bind(h1)
		gb.Nops(2)
		gb.Ret()
	}

	// Cold code chains, after everything the hot path touches. Each is
	// a run of straight-line blocks separated by direct jumps (so the
	// translator discovers each block individually), ending in an
	// indirect jump back to the driver.
	for _, cc := range coldChains {
		gb.Bind(cc.start)
		blocks := cc.blocks
		if blocks < 1 {
			blocks = 1
		}
		for j := 0; j < blocks; j++ {
			gb.Nops(12)
			step := gb.NewLabel("")
			gb.Jump(step)
			gb.Bind(step)
		}
		gb.Emit(isa.Inst{Op: isa.OpLoad, Rd: 2, Rs: regZero, Imm: int32(cc.tblOff + 1)})
		gb.JumpIndirect(2, cc.ret)
	}

	// Parameter table, boundary words, jump tables.
	data := make([]uint32, nextTbl)
	for i := range boundRegs {
		data[boundsOff+i] = uint32(bounds[i])
	}
	for p := 0; p < phases; p++ {
		for i, s := range b.Sites {
			v := rows[p][i]
			switch s.Kind {
			case SiteCountedLoop:
				data[p*nSites+i] = uint32(v + 0.5)
			case SiteCall:
				data[p*nSites+i] = 0
			default:
				data[p*nSites+i] = probParam(v)
			}
		}
	}
	gb.SetInitData(data)
	gb.ReserveData(nextTbl + 8)

	img, err := gb.Build()
	if err != nil {
		return nil, fmt.Errorf("spec: %s: %w", b.Name, err)
	}
	// Patch switch tables with the resolved target addresses. Build has
	// validated the image, and the patch rewrites only InitData values,
	// of which Validate checks just the length.
	for _, p := range patches {
		for j, name := range p.targets {
			addr, ok := img.Symbols[name]
			if !ok {
				return nil, fmt.Errorf("spec: %s: switch target %q unresolved", b.Name, name)
			}
			img.InitData[p.off+j] = uint32(addr)
		}
	}
	return img, nil
}

// siteLabel names a label of branch site i: "s<i>" then suffix.
func siteLabel(i int, suffix string) string { return "s" + strconv.Itoa(i) + suffix }
