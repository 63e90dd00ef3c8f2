package core

import (
	"encoding/binary"
	"hash/fnv"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"safespec/internal/asm"
	"safespec/internal/isa"
	"safespec/internal/mem"
	"safespec/internal/workloads"
)

// imageChecksum hashes every word of every page prog's image maps — its
// code pages, declared regions and the pages its data words touch — in
// ascending page order.
func imageChecksum(t *testing.T, img *mem.Memory, prog *isa.Program) uint64 {
	t.Helper()
	pages := map[uint64]struct{}{}
	span := func(base, size uint64) {
		for va := base &^ uint64(mem.PageMask); va < base+size; va += mem.PageSize {
			pages[va] = struct{}{}
		}
	}
	span(isa.CodeBase, uint64(len(prog.Code))*isa.BytesPerInstr+1)
	for _, r := range prog.Regions {
		span(r.Base, r.Size)
	}
	for _, words := range []map[uint64]int64{prog.Data, prog.KernelData} {
		for va := range words {
			span(va, 1)
		}
	}
	h := fnv.New64a()
	for _, va := range slices.Sorted(maps.Keys(pages)) {
		tr := img.Walk(va)
		if tr.Fault != mem.FaultNone {
			t.Fatalf("image page %#x: %v", va, tr.Fault)
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, va))
		for off := uint64(0); off < mem.PageSize; off += 8 {
			w, err := img.ReadPhys(tr.Frame + off)
			if err != nil {
				t.Fatalf("image page %#x: %v", va, err)
			}
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(w)))
		}
	}
	return h.Sum64()
}

// TestSharedImageConcurrent: simulators on several goroutines running one
// memoized, store-heavy program at once share its image read-only. Each
// gets the results of a fresh run, and the image is bit-for-bit what it was
// before any of them ran.
func TestSharedImageConcurrent(t *testing.T) {
	prog, err := workloads.Program("lbm", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	occ := WFC()
	occ.SampleOccupancy = true
	cfgs := []Config{Baseline(), WFB(), WFC(), occ}
	want := make([]*Results, len(cfgs))
	for i, cfg := range cfgs {
		cfgs[i] = cfg.WithLimits(10_000, 2_000_000)
		want[i] = Run(cfgs[i], w.Build())
	}
	img := imageOf(prog)
	before := imageChecksum(t, img, prog)

	got := make([]*Results, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Run a neighbour's cell first, so every goroutine also
			// rebinds a memory it has already dirtied.
			sim := New(cfgs[(i+1)%len(cfgs)], prog)
			sim.Run()
			sim.Reset(cfgs[i], prog)
			got[i] = sim.Run().Detach()
		}()
	}
	wg.Wait()

	for i := range cfgs {
		if !reflect.DeepEqual(got[i].Stats, want[i].Stats) {
			t.Errorf("goroutine %d (%v): shared-image run diverged from fresh run\nshared: %s\nfresh:  %s",
				i, cfgs[i].Pipeline.Mode, got[i].Summary(), want[i].Summary())
		}
	}
	if imageOf(prog) != img {
		t.Error("the memoized image was rebuilt while its program was reachable")
	}
	if after := imageChecksum(t, img, prog); after != before {
		t.Errorf("image checksum %#x after the runs, %#x before: a run wrote through to the shared image", after, before)
	}
}

// TestImageReleasedWithProgram: the image cache holds its programs weakly,
// so an image goes once its program is unreachable.
func TestImageReleasedWithProgram(t *testing.T) {
	b := asm.NewBuilder()
	b.Halt()
	prog := b.MustBuild()
	Run(Baseline(), prog)
	key := weak.Make(prog)
	cached := func() bool {
		imagesMu.Lock()
		defer imagesMu.Unlock()
		return images[key] != nil
	}
	if !cached() {
		t.Fatal("running a program did not cache its image")
	}
	prog = nil
	deadline := time.Now().Add(5 * time.Second)
	for cached() {
		if time.Now().After(deadline) {
			t.Fatal("image still cached 5s after its program became unreachable")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
