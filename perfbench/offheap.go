package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap copies the inputs' texts into one anonymous memory mapping
// outside the Go heap and returns inputs whose texts point into it, with
// the function that unmaps it. Holding a run's inputs on the heap would
// raise the garbage collector's target and so change how fast the
// program under test runs (a 37 MB Bitcoin pool cut the median solve
// time by 40%); a process solving one file holds only that file.
// Repeated inputs share one copy.
func offHeap(inputs []input) ([]input, func(), error) {
	size := 0
	for _, in := range inputs {
		size += len(in.text)
	}
	if size == 0 {
		return inputs, func() {}, nil
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("map %d bytes for the inputs: %w", size, err)
	}
	out := make([]input, len(inputs))
	copies := map[string]string{}
	off := 0
	for i, in := range inputs {
		if s, ok := copies[in.text]; ok {
			in.text = s
		} else if len(in.text) > 0 {
			n := copy(mem[off:], in.text)
			s := unsafe.String(&mem[off], n)
			copies[in.text] = s
			in.text = s
			off += n
		}
		out[i] = in
	}
	return out, func() { _ = syscall.Munmap(mem) }, nil
}
