package pipeline

import "math/bits"

// SetReferenceScheduler switches c between the event-driven scheduler
// (default) and the original O(ROB)-scan reference scheduler. Test-only:
// the differential tests pin both schedulers to identical statistics.
func (c *CPU) SetReferenceScheduler(on bool) { c.refSched = on }

// ParkedLoads returns how many loads of all threads are parked waiting for
// an older store's address (the storeWait bitmaps). Test-only: it shows a
// program really exercises the park-and-wake path.
func (c *CPU) ParkedLoads() int {
	n := 0
	for i := range c.ths {
		for _, w := range c.ths[i].storeWait {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// WronglyParkedLoads returns how many in-flight loads of all threads are
// parked in storeWait although no older store with an unresolved address
// blocks them (or are parked without being waiting loads at all).
// Test-only: parking is exact only if this is 0 after every cycle, since a
// parked load must be woken by the very issue that unblocks it.
func (c *CPU) WronglyParkedLoads() int {
	n := 0
	for i := range c.ths {
		t := &c.ths[i]
		for ord := 0; ord < t.count; ord++ {
			idx := t.slot(ord)
			if t.storeWait[idx>>6]>>uint(idx&63)&1 == 0 {
				continue
			}
			e := &t.rob[idx]
			if e.state != stWait || !e.isLoad {
				n++
			} else if _, blocked := c.olderStoreScan(t, idx, e.va); !blocked {
				n++
			}
		}
	}
	return n
}
