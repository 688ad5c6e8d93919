package isa

// Memory is the functional data memory: a sparse, page-granular store of
// 64-bit words. Addresses are byte addresses; accesses are 8-byte and the
// low three address bits are ignored (the machine has no sub-word
// operations). Timing is modeled separately by the cache hierarchy; Memory
// holds only architectural state.
type Memory struct {
	pages map[uint64]*[pageWords]uint64
}

const (
	pageShift = 12 // 4 KiB pages
	pageBytes = 1 << pageShift
	pageWords = pageBytes / 8
)

// NewMemory returns an empty memory; all locations read as zero.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageWords]uint64)}
}

func split(addr uint64) (page uint64, word int) {
	return addr >> pageShift, int(addr&(pageBytes-1)) >> 3
}

// LoadWord returns the 64-bit word at addr (rounded down to 8 bytes).
func (m *Memory) LoadWord(addr uint64) uint64 {
	page, word := split(addr)
	p := m.pages[page]
	if p == nil {
		return 0
	}
	return p[word]
}

// StoreWord writes the 64-bit word at addr (rounded down to 8 bytes).
func (m *Memory) StoreWord(addr uint64, v uint64) {
	page, word := split(addr)
	p := m.pages[page]
	if p == nil {
		p = new([pageWords]uint64)
		m.pages[page] = p
	}
	p[word] = v
}
