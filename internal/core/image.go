package core

import (
	"runtime"
	"sync"
	"weak"

	"safespec/internal/isa"
	"safespec/internal/mem"
	"safespec/internal/pipeline"
)

// images memoizes each program's frozen memory image, which every
// Simulator running that program maps copy-on-write. Keys are weak: once a
// program is unreachable, a cleanup drops its entry, so the cache never
// keeps an image alive on its own. Each value builds its image once,
// outside the lock, however many simulators ask for it at once; once built
// it no longer references the program.
var (
	imagesMu sync.Mutex
	images   = map[weak.Pointer[isa.Program]]func() *mem.Memory{}
)

// imageOf returns prog's frozen image, building it on first use.
func imageOf(prog *isa.Program) *mem.Memory {
	key := weak.Make(prog)
	imagesMu.Lock()
	image := images[key]
	if image == nil {
		image = sync.OnceValue(func() *mem.Memory { return pipeline.BuildMemory(prog).Freeze() })
		images[key] = image
		runtime.AddCleanup(prog, dropImage, key)
	}
	imagesMu.Unlock()
	return image()
}

func dropImage(key weak.Pointer[isa.Program]) {
	imagesMu.Lock()
	delete(images, key)
	imagesMu.Unlock()
}
