package physmem

import (
	"testing"

	"xlate/internal/addr"
)

// FuzzAllocator runs the differential against the reference model
// (diff_test.go) on an op stream decoded from fuzz bytes: allocations
// of orders 0-12, frees of live blocks, and frees of arbitrary
// frame-aligned addresses that the two allocators must refuse alike.
func FuzzAllocator(f *testing.F) {
	f.Add([]byte{0x01, 0x85, 0x03, 0x80, 0x09})
	f.Add([]byte{0xff, 0x00, 0x10, 0x90})
	f.Add([]byte{0x0c, 0x00, 0x00, 0xc1, 0x80, 0xc1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		const frames = 1<<12 + 40 // 16 MB of frames and a ragged tail
		d := newDifferential(t, frames)
		for i, op := range ops {
			switch {
			case op&0xc0 == 0xc0:
				// op and its successor name a frame, in range or just past it.
				frame := uint64(op&0x3f) << 8
				if i+1 < len(ops) {
					frame |= uint64(ops[i+1])
				}
				d.free(addr.PA(frame % (frames + 64) << FrameShift))
			case op&0x80 != 0 && len(d.live) > 0:
				d.free(d.live[int(op&0x3f)%len(d.live)])
			default:
				d.alloc(int(op) % 13)
			}
		}
		if err := d.got.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		d.drain()
	})
}
