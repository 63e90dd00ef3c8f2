package mem

import "testing"

// testImage returns a frozen image with two data pages holding a few words
// and two pages left all zero.
func testImage(t *testing.T) *Memory {
	t.Helper()
	m := New()
	for _, va := range []uint64{0x1000, 0x2000, 0x3000, 0x4000} {
		m.Map(va, PermUser|PermKernel)
	}
	for _, w := range []struct {
		va uint64
		v  int64
	}{{0x1000, 11}, {0x2008, 22}} {
		if f := m.Write(w.va, w.v, true); f != FaultNone {
			t.Fatal(f)
		}
	}
	return m.Freeze()
}

func mustWrite(t *testing.T, m *Memory, va uint64, v int64) {
	t.Helper()
	if f := m.Write(va, v, true); f != FaultNone {
		t.Fatalf("write %#x: %v", va, f)
	}
}

func expectWord(t *testing.T, what string, m *Memory, va uint64, want int64) {
	t.Helper()
	if got, f := m.Read(va, true); f != FaultNone || got != want {
		t.Errorf("%s: mem[%#x] = %d (fault %v), want %d", what, va, got, f, want)
	}
}

// TestCopyOnWriteIsolation: a write through one working memory is private
// to it — neither the image nor a second memory mapping the same image
// sees it — and the physical layout stays the image's.
func TestCopyOnWriteIsolation(t *testing.T) {
	img := testImage(t)
	var a, b Memory
	a.Rebind(img)
	b.Rebind(img)

	mustWrite(t, &a, 0x1000, 100)
	mustWrite(t, &a, 0x2010, 200)

	expectWord(t, "writer", &a, 0x1000, 100)
	expectWord(t, "writer", &a, 0x2010, 200)
	expectWord(t, "writer, untouched word of a copied frame", &a, 0x2008, 22)
	for _, m := range []struct {
		name string
		mem  *Memory
	}{{"image", img}, {"second memory", &b}} {
		expectWord(t, m.name, m.mem, 0x1000, 11)
		expectWord(t, m.name, m.mem, 0x2008, 22)
		expectWord(t, m.name, m.mem, 0x2010, 0)
	}
	for _, va := range []uint64{0x1000, 0x2000, 0x4000} {
		if got, want := a.Walk(va), img.Walk(va); got != want {
			t.Errorf("walk %#x: working memory %+v, image %+v", va, got, want)
		}
	}
}

// TestSharedZeroFrameStaysZero: Freeze collapses all-zero frames onto one
// shared zero frame, and writes to zero-backed pages copy it rather than
// write through it.
func TestSharedZeroFrameStaysZero(t *testing.T) {
	img := testImage(t)
	deduped := 0
	for _, f := range img.frames {
		if &f[0] == &zeroFrame[0] {
			deduped++
		}
	}
	if deduped != 2 {
		t.Errorf("%d frames share the zero frame, want 2 (the two zero pages)", deduped)
	}

	var m Memory
	m.Rebind(img)
	mustWrite(t, &m, 0x3000, 7)
	mustWrite(t, &m, 0x4ff8, 8)
	expectWord(t, "writer", &m, 0x3000, 7)
	expectWord(t, "writer", &m, 0x4ff8, 8)
	expectWord(t, "image", img, 0x3000, 0)
	expectWord(t, "image", img, 0x4ff8, 0)
	if !isZero(zeroFrame) {
		t.Fatal("the shared zero frame was written")
	}
}

// TestRebindRestoresImage: rebinding restores every word written since the
// last rebind — including multiply-overwritten ones and words in frames
// that started out as the shared zero frame — and a second rebind undoes
// the writes made after the first, and only those.
func TestRebindRestoresImage(t *testing.T) {
	img := testImage(t)
	var m Memory
	m.Rebind(img)
	for _, w := range []struct {
		va uint64
		v  int64
	}{{0x1000, 100}, {0x1000, 200}, {0x2008, 300}, {0x2010, 400}, {0x3000, 500}} {
		mustWrite(t, &m, w.va, w.v)
	}
	m.Rebind(img)
	for _, want := range []struct {
		va uint64
		v  int64
	}{{0x1000, 11}, {0x2008, 22}, {0x2010, 0}, {0x3000, 0}} {
		expectWord(t, "after rebind", &m, want.va, want.v)
	}

	mustWrite(t, &m, 0x1000, 777)
	m.Rebind(img)
	expectWord(t, "after second rebind", &m, 0x1000, 11)
}

// TestRebindRecyclesPrivateFrames: the frames a run made private come back
// through the spare list, so once warm, a rebind followed by the same
// writes allocates nothing.
func TestRebindRecyclesPrivateFrames(t *testing.T) {
	img := testImage(t)
	var m Memory
	m.Rebind(img)
	run := func() {
		m.Rebind(img)
		for _, va := range []uint64{0x1000, 0x2000, 0x3000, 0x4000} {
			_ = m.Write(va+8, int64(va), true)
		}
	}
	run()
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Errorf("rebind + copy-on-write allocates %.2f times per run, want 0", avg)
	}
}

// TestRebindDropsPreviousImage: rebinding to a different image replaces the
// whole address space, including pages only the old image mapped.
func TestRebindDropsPreviousImage(t *testing.T) {
	small := New()
	small.Map(0x9000, PermUser)
	small.Freeze()

	var m Memory
	m.Rebind(testImage(t))
	mustWrite(t, &m, 0x1000, 5)
	m.Rebind(small)
	if _, f := m.Read(0x1000, true); f != FaultUnmapped {
		t.Errorf("page of the previous image still mapped: fault %v", f)
	}
	expectWord(t, "new image", &m, 0x9000, 0)
}

// TestFrozenImageRejectsWrites: an image is shared by every memory mapping
// it, so writing or mapping into it is a bug that must not pass silently.
func TestFrozenImageRejectsWrites(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(*Memory)
	}{
		{"write", func(m *Memory) { m.Write(0x1000, 1, true) }},
		{"map", func(m *Memory) { m.Map(0x7000_0000, PermUser) }},
		{"rebind to unfrozen", func(*Memory) { new(Memory).Rebind(New()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.op(testImage(t))
		})
	}
}
