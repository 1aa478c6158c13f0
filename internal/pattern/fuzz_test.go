package pattern

import "testing"

// FuzzCompileRegex: arbitrary patterns must never panic the compiler,
// and compiled patterns must never panic the matcher.
func FuzzCompileRegex(f *testing.F) {
	for _, seed := range []string{
		"", "a", "a|b", "(ab)*c{2,3}", `[a-z\d]+`, `\x41{1,4}`, "((((", "a{999999}",
		`^start.*end$`, `[^\n]*`,
	} {
		f.Add(seed, "sample input a1B2")
	}
	f.Fuzz(func(t *testing.T, pattern, input string) {
		re, err := CompileRegex(pattern, len(pattern)%2 == 0)
		if err != nil {
			return
		}
		_ = re.MatchString(input)
	})
}

// FuzzScanResultCodec: decoding arbitrary bytes must never panic, and
// decodable payloads must re-encode consistently.
func FuzzScanResultCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeScanResult(nil))
	f.Add(EncodeScanResult([]int{1, 2, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, err := DecodeScanResult(data)
		if err != nil {
			return
		}
		again, err := DecodeScanResult(EncodeScanResult(ids))
		if err != nil || len(again) != len(ids) {
			t.Fatal("re-encode mismatch")
		}
	})
}
