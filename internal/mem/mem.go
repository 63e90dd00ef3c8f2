// Package mem implements the architectural memory of the simulator: a
// byte-addressable, paged virtual address space with user/kernel permission
// bits and a software-walkable page table.
//
// The simulator splits semantics from timing: architectural values live
// here, while caches, TLBs and the SafeSpec shadow structures (packages
// cache, tlb, shadow) model only presence and replacement. That split is
// what makes "squash the shadow state in place" a pure timing operation, as
// in the paper.
//
// The page table is a real in-memory radix structure whose entries occupy
// physical addresses, so the page walker performs genuine memory reads that
// travel through the data-cache path — the property the paper relies on when
// arguing that protecting the D-cache also protects the page-walk traffic.
package mem

import (
	"errors"
	"fmt"
	"maps"
	"slices"
)

// PageBits is log2 of the page size. 4 KiB pages, as on x86-64.
const PageBits = 12

// PageSize is the page size in bytes.
const PageSize = 1 << PageBits

// PageMask extracts the offset within a page.
const PageMask = PageSize - 1

// Perm describes page permissions.
type Perm uint8

const (
	// PermUser marks the page readable from user mode.
	PermUser Perm = 1 << iota
	// PermKernel marks the page readable only from kernel mode. A user-mode
	// access to such a page raises a permission fault at commit time.
	PermKernel
)

// Fault enumerates architectural faults.
type Fault uint8

const (
	// FaultNone means the access was legal.
	FaultNone Fault = iota
	// FaultPerm is a permission violation (user access to a kernel page).
	FaultPerm
	// FaultUnmapped is an access to an unmapped virtual page.
	FaultUnmapped
)

// String returns a short name for the fault.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultPerm:
		return "perm"
	case FaultUnmapped:
		return "unmapped"
	default:
		return fmt.Sprintf("fault(%d)", uint8(f))
	}
}

// ErrUnmapped is returned by direct physical accesses to absent frames.
var ErrUnmapped = errors.New("mem: unmapped address")

// PTE is a page-table entry as stored in simulated physical memory.
// Layout: bit 0 = valid, bit 1 = user, bit 2 = kernel, bits 12+ = frame base.
type PTE uint64

// pteValid is the valid bit of a PTE.
const pteValid PTE = 1

// Valid reports whether the entry maps a frame.
func (p PTE) Valid() bool { return p&pteValid != 0 }

// Perm returns the permission bits of the entry.
func (p PTE) Perm() Perm { return Perm((p >> 1) & 3) }

// Frame returns the physical frame base address.
func (p PTE) Frame() uint64 { return uint64(p) &^ uint64(PageMask) }

// MakePTE builds a PTE for the given frame and permissions.
func MakePTE(frame uint64, perm Perm) PTE {
	return PTE(frame&^uint64(PageMask)) | PTE(perm)<<1 | pteValid
}

// Walk levels: a 2-level table covering 36 bits of VA
// (12 offset + 12 + 12). Each level is a 4096-entry array of 8-byte PTEs,
// i.e. exactly one 32 KiB region... to keep walks short (2 memory reads),
// matching the cost profile that matters for the TLB experiments.
const (
	walkLevels  = 2
	idxBits     = 12
	idxMask     = (1 << idxBits) - 1
	entriesPerL = 1 << idxBits
)

// regionBytes is the bump-allocator granularity: page-table levels are
// 4096 entries * 8 B, and every allocated region is addressed at this
// stride so a physical address maps to its region by pure arithmetic.
const regionBytes = entriesPerL * 8

// Memory is the simulated physical memory plus the page-table machinery.
//
// A Memory is either an image or a working memory. An image is built with
// New, Map and LoadImage, then frozen (Freeze): its frames are never written
// again, so any number of working memories on any goroutines can map it at
// once. A working memory maps an image copy-on-write (Rebind): it shares the
// image's frames and copies each one into a private frame before its first
// write. Rebinding again drops every private frame, which restores the
// image's content exactly.
type Memory struct {
	// frames holds the allocated regions in bump order: region i covers
	// physical addresses [physBase+i*regionBytes, +len(frames[i])*8).
	// Page-table regions are fully populated (entriesPerL words); data
	// regions only back their first page, which is all a 4 KiB-page
	// translation can reach. Indexing by arithmetic instead of a map keeps
	// ReadPhys/WritePhys — the hottest memory-system calls (every PTE read
	// of every page walk lands here) — map-free.
	frames [][]int64
	// shared marks the frames borrowed from an image, which WritePhys
	// copies before writing. Every frame of a frozen image is marked too.
	shared []bool
	// spare holds the private frames the last Rebind released. A
	// copy-on-write takes its private frame from here before allocating,
	// so a working memory rebound between runs stops allocating once warm.
	spare [][]int64
	// frozen makes every write panic: the memory is an image.
	frozen bool
	// rootPA is the physical base of the level-1 page table.
	rootPA uint64
	// nextFreePA is a bump allocator for frames (page tables and data).
	nextFreePA uint64
}

// physBase is where the bump allocator starts handing out frames.
// Virtual addresses used by programs are far below this, avoiding collisions
// between PA-space and the VA values that identify lines in the caches.
const physBase = 1 << 40

// zeroFrame backs every all-zero frame of every frozen image. Like the
// images themselves it is never written: WritePhys copies it first.
var zeroFrame = make([]int64, entriesPerL)

// New returns an empty memory with an allocated (empty) root page table.
func New() *Memory {
	m := &Memory{nextFreePA: physBase}
	m.rootPA = m.allocFrame(entriesPerL)
	return m
}

// allocFrame reserves a zeroed physical region of the given word count and
// returns its base address. The region occupies a full regionBytes slot of
// the PA space regardless of words.
func (m *Memory) allocFrame(words int) uint64 {
	if m.frozen {
		panic("mem: mapping into a frozen image")
	}
	base := m.nextFreePA
	m.nextFreePA += regionBytes
	m.frames = append(m.frames, make([]int64, words))
	m.shared = append(m.shared, false)
	return base
}

// Freeze turns m into an image that working memories map with Rebind, and
// returns it. Every all-zero frame collapses onto one shared zero frame, so
// an image holds only the frames that carry data or page-table entries.
// Any later write to m panics.
func (m *Memory) Freeze() *Memory {
	for i, f := range m.frames {
		if isZero(f) {
			m.frames[i] = zeroFrame[:len(f):len(f)]
		}
		m.shared[i] = true
	}
	m.frozen = true
	return m
}

func isZero(f []int64) bool {
	for _, w := range f {
		if w != 0 {
			return false
		}
	}
	return true
}

// Rebind makes m a copy-on-write view of the frozen image img, as if m had
// just been built the way img was. Whatever m held before is dropped; its
// private frames move to the spare list for the copies of the next run.
func (m *Memory) Rebind(img *Memory) {
	if !img.frozen {
		panic("mem: Rebind to a memory that is not frozen")
	}
	for i, f := range m.frames {
		if !m.shared[i] {
			m.spare = append(m.spare, f)
		}
	}
	old := m.frames
	m.frames = append(old[:0], img.frames...)
	if len(old) > len(m.frames) {
		// Let a previous, larger image be collected.
		clear(old[len(m.frames):])
	}
	m.shared = append(m.shared[:0], img.shared...)
	m.rootPA, m.nextFreePA = img.rootPA, img.nextFreePA
}

// RootPA returns the physical address of the root page table, which the
// page walker dereferences.
func (m *Memory) RootPA() uint64 { return m.rootPA }

// frameOf locates pa: the frame holding it, that frame's slot and the word
// index of pa within the frame.
func (m *Memory) frameOf(pa uint64) (f []int64, slot, word uint64, ok bool) {
	if pa < physBase {
		return nil, 0, 0, false
	}
	slot = (pa - physBase) / regionBytes
	if slot >= uint64(len(m.frames)) {
		return nil, 0, 0, false
	}
	f = m.frames[slot]
	word = (pa - physBase) % regionBytes / 8
	return f, slot, word, word < uint64(len(f))
}

// ReadPhys reads the 64-bit word at physical address pa (8-byte aligned by
// truncation).
func (m *Memory) ReadPhys(pa uint64) (int64, error) {
	f, _, i, ok := m.frameOf(pa)
	if !ok {
		return 0, ErrUnmapped
	}
	return f[i], nil
}

// WritePhys writes the 64-bit word at physical address pa, first copying
// the frame into a private one if it is shared with an image.
func (m *Memory) WritePhys(pa uint64, v int64) error {
	f, slot, i, ok := m.frameOf(pa)
	if !ok {
		return ErrUnmapped
	}
	if m.shared[slot] {
		f = m.own(slot)
	}
	f[i] = v
	return nil
}

// own replaces the shared frame in slot with a private copy and returns it.
func (m *Memory) own(slot uint64) []int64 {
	if m.frozen {
		panic("mem: write to a frozen image")
	}
	src := m.frames[slot]
	var dst []int64
	if k := len(m.spare) - 1; k >= 0 && cap(m.spare[k]) >= len(src) {
		dst = m.spare[k][:len(src)]
		m.spare = m.spare[:k]
	} else {
		dst = make([]int64, len(src))
	}
	copy(dst, src)
	m.frames[slot] = dst
	m.shared[slot] = false
	return dst
}

// Map establishes a mapping for the virtual page containing va with the given
// permissions, allocating a data frame and any missing page-table levels.
// Remapping an already-mapped page updates its permissions in place.
func (m *Memory) Map(va uint64, perm Perm) {
	l1 := (va >> (PageBits + idxBits)) & idxMask
	l2 := (va >> PageBits) & idxMask

	l1pa := m.rootPA + l1*8
	l1e, _ := m.ReadPhys(l1pa)
	l1pte := PTE(l1e)
	if !l1pte.Valid() {
		tbl := m.allocFrame(entriesPerL)
		l1pte = MakePTE(tbl, PermUser|PermKernel)
		_ = m.WritePhys(l1pa, int64(l1pte))
	}
	l2pa := l1pte.Frame() + l2*8
	l2e, _ := m.ReadPhys(l2pa)
	l2pte := PTE(l2e)
	if !l2pte.Valid() {
		// A data frame backs exactly one 4 KiB page: no translation can
		// reach beyond it, so allocating the full region would only burn
		// allocator time and cache footprint per mapped page.
		frame := m.allocFrame(PageSize / 8)
		l2pte = MakePTE(frame, perm)
	} else {
		l2pte = MakePTE(l2pte.Frame(), perm)
	}
	_ = m.WritePhys(l2pa, int64(l2pte))
}

// WalkStep describes one page-walk memory reference (a PTE read), which the
// pipeline routes through the data-cache path.
type WalkStep struct {
	// PA is the physical address of the PTE that was read.
	PA uint64
}

// Translation is the result of a page walk.
type Translation struct {
	// VPage is the virtual page base address.
	VPage uint64
	// Frame is the physical frame base (0 if the walk faulted).
	Frame uint64
	// Perm holds the mapped permissions.
	Perm Perm
	// Fault is FaultNone on success.
	Fault Fault
	// Steps lists the PTE reads performed, oldest first.
	Steps [walkLevels]WalkStep
}

// Walk translates va by walking the page table, returning the translation
// and the list of PTE addresses touched. It never allocates.
func (m *Memory) Walk(va uint64) Translation {
	tr := Translation{VPage: va &^ uint64(PageMask)}
	l1 := (va >> (PageBits + idxBits)) & idxMask
	l2 := (va >> PageBits) & idxMask

	l1pa := m.rootPA + l1*8
	tr.Steps[0] = WalkStep{PA: l1pa}
	l1e, err := m.ReadPhys(l1pa)
	l1pte := PTE(l1e)
	if err != nil || !l1pte.Valid() {
		tr.Fault = FaultUnmapped
		return tr
	}
	l2pa := l1pte.Frame() + l2*8
	tr.Steps[1] = WalkStep{PA: l2pa}
	l2e, err := m.ReadPhys(l2pa)
	l2pte := PTE(l2e)
	if err != nil || !l2pte.Valid() {
		tr.Fault = FaultUnmapped
		return tr
	}
	tr.Frame = l2pte.Frame()
	tr.Perm = l2pte.Perm()
	return tr
}

// CheckAccess returns the fault (if any) for a user-mode access with the
// given translation.
func CheckAccess(tr Translation, kernelMode bool) Fault {
	if tr.Fault != FaultNone {
		return tr.Fault
	}
	if !kernelMode && tr.Perm&PermUser == 0 {
		return FaultPerm
	}
	return FaultNone
}

// Read returns the 64-bit value at virtual address va (8-byte aligned by
// truncation), along with any fault. On fault the data value is still
// returned when the page is mapped — this models the Meltdown-vulnerable
// behaviour in which faulting loads forward data to speculative dependents.
func (m *Memory) Read(va uint64, kernelMode bool) (int64, Fault) {
	tr := m.Walk(va)
	fault := CheckAccess(tr, kernelMode)
	if tr.Fault != FaultNone {
		return 0, fault
	}
	pa := tr.Frame + (va & PageMask)
	v, err := m.ReadPhys(pa)
	if err != nil {
		return 0, FaultUnmapped
	}
	return v, fault
}

// Write stores v at virtual address va. Writes to kernel pages from user
// mode fault and do not modify memory (stores are only performed at commit,
// where the fault is raised first).
func (m *Memory) Write(va uint64, v int64, kernelMode bool) Fault {
	tr := m.Walk(va)
	fault := CheckAccess(tr, kernelMode)
	if fault != FaultNone {
		return fault
	}
	pa := tr.Frame + (va & PageMask)
	if err := m.WritePhys(pa, v); err != nil {
		return FaultUnmapped
	}
	return FaultNone
}

// EnsureMapped maps the page containing va as user-accessible if it is not
// already mapped. It is a convenience used by program loaders.
func (m *Memory) EnsureMapped(va uint64, perm Perm) {
	tr := m.Walk(va)
	if tr.Fault != FaultNone {
		m.Map(va, perm)
	}
}

// LoadImage installs the program's data segments: Data words into user pages
// and KernelData words into kernel-only pages. Pages are mapped in ascending
// address order before any word is written, so the physical layout of a
// program's image (which feeds the D-cache through page-walk PTE reads)
// never depends on map iteration order.
func (m *Memory) LoadImage(data, kernelData map[uint64]int64) {
	for _, va := range pagesOf(data) {
		m.EnsureMapped(va, PermUser|PermKernel)
	}
	for _, va := range pagesOf(kernelData) {
		m.Map(va, PermKernel)
	}
	for va, v := range data {
		if f := m.Write(va, v, true); f != FaultNone {
			panic(fmt.Sprintf("mem: loading user data at %#x: %v", va, f))
		}
	}
	for va, v := range kernelData {
		if f := m.Write(va, v, true); f != FaultNone {
			panic(fmt.Sprintf("mem: loading kernel data at %#x: %v", va, f))
		}
	}
}

// pagesOf returns the base addresses of the pages words touches, ascending.
func pagesOf(words map[uint64]int64) []uint64 {
	pages := make(map[uint64]struct{})
	for va := range words {
		pages[va&^uint64(PageMask)] = struct{}{}
	}
	return slices.Sorted(maps.Keys(pages))
}
