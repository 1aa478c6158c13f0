package compress_test

import (
	"bytes"
	"fmt"
	"strings"

	"speed/internal/compress"
)

// ExampleCompress shows the one-shot API.
func ExampleCompress() {
	src := []byte(strings.Repeat("deduplicate all the things. ", 100))
	comp := compress.Compress(src)
	out, err := compress.Decompress(comp)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(bytes.Equal(out, src), len(comp) < len(src))
	// Output:
	// true true
}

// ExampleCompressLevel compares effort levels.
func ExampleCompressLevel() {
	src := []byte(strings.Repeat("level up! ", 2000))
	fast := compress.CompressLevel(src, 1)
	best := compress.CompressLevel(src, 9)
	fmt.Println(len(best) <= len(fast))
	// Output:
	// true
}
