package pattern_test

import (
	"fmt"

	"speed/internal/pattern"
)

// ExampleRuleSet_Scan compiles two Snort-like rules and scans a
// payload.
func ExampleRuleSet_Scan() {
	rules := []pattern.Rule{
		{ID: 1001, Name: "admin probe", Contents: [][]byte{[]byte("GET")}, NoCase: true,
			PCRE: `admin[a-z]*\.php`, PCRENoCase: true},
		{ID: 1002, Name: "passwd read", Contents: [][]byte{[]byte("/etc/passwd")}},
	}
	rs, err := pattern.CompileRules(rules)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(rs.Scan([]byte("get /administrator.php and cat /etc/passwd")))
	fmt.Println(rs.Scan([]byte("GET /index.html")))
	// Output:
	// [1001 1002]
	// []
}

// ExampleCompileRegex shows the PCRE-subset engine.
func ExampleCompileRegex() {
	re, err := pattern.CompileRegex(`\d{3}-\d{4}`, false)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(re.MatchString("call 555-0199 now"))
	fmt.Println(re.MatchString("no digits here"))
	// Output:
	// true
	// false
}

// ExampleNewMatcher shows the multi-pattern Aho–Corasick matcher.
func ExampleNewMatcher() {
	m := pattern.NewMatcher([][]byte{
		[]byte("he"), []byte("she"), []byte("hers"),
	}, false)
	for _, match := range m.FindAll([]byte("ushers")) {
		fmt.Printf("pattern %d ends at %d\n", match.Pattern, match.End)
	}
	// Output:
	// pattern 0 ends at 4
	// pattern 1 ends at 4
	// pattern 2 ends at 6
}
