package pattern

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// A Thompson-NFA regular expression engine covering the PCRE subset
// used by IDS rules: literals, '.', character classes with ranges and
// negation, the escapes \d \D \w \W \s \S \xHH and escaped
// metacharacters, anchors ^ and $, quantifiers * + ? {m} {m,} {m,n},
// grouping and alternation, plus an ASCII case-insensitive mode.
// Matching is unanchored (like pcre_exec) and runs in O(len(input) *
// len(program)) with no backtracking.

// ErrBadRegex is returned by CompileRegex for invalid patterns.
var ErrBadRegex = errors.New("pattern: invalid regular expression")

const maxProgramSize = 1 << 16

// charClass is a 256-bit byte membership set.
type charClass [4]uint64

func (c *charClass) add(b byte)      { c[b>>6] |= 1 << (b & 63) }
func (c *charClass) has(b byte) bool { return c[b>>6]&(1<<(b&63)) != 0 }
func (c *charClass) addRange(lo, hi byte) {
	for b := int(lo); b <= int(hi); b++ {
		c.add(byte(b))
	}
}
func (c *charClass) negate() {
	for i := range c {
		c[i] = ^c[i]
	}
}
func (c *charClass) foldCase() {
	for b := byte('a'); b <= 'z'; b++ {
		if c.has(b) {
			c.add(b - 'a' + 'A')
		}
	}
	for b := byte('A'); b <= 'Z'; b++ {
		if c.has(b) {
			c.add(b - 'A' + 'a')
		}
	}
}

// NFA opcodes.
const (
	opChar  = iota + 1 // consume one byte in class; goto next
	opSplit            // fork to next and alt
	opMatch            // accept
	opBOL              // assert beginning of input
	opEOL              // assert end of input
)

type inst struct {
	op    uint8
	class charClass
	next  int32
	alt   int32
}

// Regex is a compiled regular expression, safe for concurrent use.
type Regex struct {
	prog   []inst
	start  int32
	source string
}

// String returns the source pattern.
func (r *Regex) String() string { return r.source }

// CompileRegex compiles the pattern. With foldCase true, matching is
// ASCII case-insensitive (PCRE's /i).
func CompileRegex(pattern string, foldCase bool) (*Regex, error) {
	p := &parser{src: pattern, fold: foldCase}
	frag, err := p.parseAlternation()
	if err != nil {
		return nil, fmt.Errorf("%w: %q: %v", ErrBadRegex, pattern, err)
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("%w: %q: unexpected %q", ErrBadRegex, pattern, p.src[p.pos])
	}
	match := p.emit(inst{op: opMatch})
	p.patch(frag.out, match)
	return &Regex{prog: p.prog, start: frag.start, source: pattern}, nil
}

// MustCompileRegex is CompileRegex that panics on error, for use with
// static patterns.
func MustCompileRegex(pattern string, foldCase bool) *Regex {
	r, err := CompileRegex(pattern, foldCase)
	if err != nil {
		panic(err)
	}
	return r
}

// ---- parser / compiler ----

// frag is a program fragment: its start instruction and the list of
// dangling next/alt fields (encoded as inst*2 or inst*2+1) waiting to
// be patched.
type frag struct {
	start int32
	out   []int32
}

type parser struct {
	src  string
	pos  int
	fold bool
	prog []inst
}

// emit appends in and returns its index, or -1 once the program is
// full, which the caller reports as "program too large".
func (p *parser) emit(in inst) int32 {
	if len(p.prog) >= maxProgramSize {
		return -1
	}
	p.prog = append(p.prog, in)
	return int32(len(p.prog) - 1)
}

func (p *parser) patch(outs []int32, target int32) {
	for _, o := range outs {
		idx, isAlt := o/2, o%2 == 1
		if idx < 0 {
			continue
		}
		if isAlt {
			p.prog[idx].alt = target
		} else {
			p.prog[idx].next = target
		}
	}
}

func (p *parser) peek() (byte, bool) {
	if p.pos >= len(p.src) {
		return 0, false
	}
	return p.src[p.pos], true
}

func (p *parser) parseAlternation() (frag, error) {
	left, err := p.parseConcat()
	if err != nil {
		return frag{}, err
	}
	for {
		c, ok := p.peek()
		if !ok || c != '|' {
			return left, nil
		}
		p.pos++
		right, err := p.parseConcat()
		if err != nil {
			return frag{}, err
		}
		split := p.emit(inst{op: opSplit, next: left.start, alt: right.start})
		if split < 0 {
			return frag{}, errors.New("program too large")
		}
		left = frag{start: split, out: append(left.out, right.out...)}
	}
}

func (p *parser) parseConcat() (frag, error) {
	var f *frag
	for {
		c, ok := p.peek()
		if !ok || c == '|' || c == ')' {
			break
		}
		piece, err := p.parsePiece()
		if err != nil {
			return frag{}, err
		}
		if f == nil {
			f = &piece
			continue
		}
		p.patch(f.out, piece.start)
		f = &frag{start: f.start, out: piece.out}
	}
	if f == nil {
		// Empty expression: a split that falls straight through.
		nop := p.emit(inst{op: opSplit})
		if nop < 0 {
			return frag{}, errors.New("program too large")
		}
		return frag{start: nop, out: []int32{nop * 2, nop*2 + 1}}, nil
	}
	return *f, nil
}

func (p *parser) parsePiece() (frag, error) {
	atomLo := int32(len(p.prog))
	atom, err := p.parseAtom()
	if err != nil {
		return frag{}, err
	}
	atomHi := int32(len(p.prog)) - 1
	c, ok := p.peek()
	if !ok {
		return atom, nil
	}
	switch c {
	case '*':
		p.pos++
		return p.star(atom)
	case '+':
		p.pos++
		return p.plus(atom)
	case '?':
		p.pos++
		return p.quest(atom)
	case '{':
		return p.parseRepeat(atom, atomLo, atomHi)
	}
	return atom, nil
}

func (p *parser) star(atom frag) (frag, error) {
	split := p.emit(inst{op: opSplit, next: atom.start})
	if split < 0 {
		return frag{}, errors.New("program too large")
	}
	p.patch(atom.out, split)
	return frag{start: split, out: []int32{split*2 + 1}}, nil
}

// plus is star's loop entered at the atom instead of at the split.
func (p *parser) plus(atom frag) (frag, error) {
	f, err := p.star(atom)
	f.start = atom.start
	return f, err
}

func (p *parser) quest(atom frag) (frag, error) {
	split := p.emit(inst{op: opSplit, next: atom.start})
	if split < 0 {
		return frag{}, errors.New("program too large")
	}
	return frag{start: split, out: append(atom.out, split*2+1)}, nil
}

// parseRepeat handles {m}, {m,} and {m,n} by cloning the atom's
// compiled instruction range ([lo, hi], contiguous because parsePiece
// calls parseRepeat immediately after parseAtom) the required number of
// times.
func (p *parser) parseRepeat(atom frag, lo, hi int32) (frag, error) {
	m, n, err := p.parseBounds()
	if err != nil {
		return frag{}, err
	}
	const maxRepeat = 256
	if m > maxRepeat || (n >= 0 && (n > maxRepeat || n < m)) {
		return frag{}, fmt.Errorf("repeat bounds {%d,%d} invalid or too large", m, n)
	}

	cloned := func(f frag) frag {
		base := int32(len(p.prog))
		for i := lo; i <= hi; i++ {
			in := p.prog[i]
			if in.op == opChar || in.op == opSplit || in.op == opBOL || in.op == opEOL {
				if in.next >= lo && in.next <= hi {
					in.next += base - lo
				}
				if in.op == opSplit && in.alt >= lo && in.alt <= hi {
					in.alt += base - lo
				}
			}
			p.prog = append(p.prog, in)
		}
		out := make([]int32, len(f.out))
		for i, o := range f.out {
			idx, bit := o/2, o%2
			out[i] = (idx+base-lo)*2 + bit
		}
		return frag{start: f.start + base - lo, out: out}
	}

	if len(p.prog) >= maxProgramSize {
		return frag{}, errors.New("program too large")
	}

	// Mandatory part: m copies (the original plus m-1 clones).
	result := atom
	if m == 0 {
		// Entire expression optional.
		switch {
		case n < 0: // {0,} == *
			return p.star(atom)
		case n == 0: // {0,0}: consume nothing
			nop := p.emit(inst{op: opSplit})
			if nop < 0 {
				return frag{}, errors.New("program too large")
			}
			return frag{start: nop, out: []int32{nop * 2, nop*2 + 1}}, nil
		default:
			q, err := p.quest(atom)
			if err != nil {
				return frag{}, err
			}
			result = q
			m = 1 // one optional copy consumed
		}
	}
	for i := 1; i < m; i++ {
		c := cloned(atom)
		p.patch(result.out, c.start)
		result = frag{start: result.start, out: c.out}
	}
	switch {
	case n < 0: // {m,}: last copy loops
		c := cloned(atom)
		loop, err := p.star(c)
		if err != nil {
			return frag{}, err
		}
		p.patch(result.out, loop.start)
		result = frag{start: result.start, out: loop.out}
	case n > m:
		for i := m; i < n; i++ {
			c := cloned(atom)
			q, err := p.quest(c)
			if err != nil {
				return frag{}, err
			}
			p.patch(result.out, q.start)
			result = frag{start: result.start, out: q.out}
		}
	}
	if len(p.prog) > maxProgramSize {
		return frag{}, errors.New("program too large")
	}
	return result, nil
}

func (p *parser) parseBounds() (m, n int, err error) {
	if c, ok := p.peek(); !ok || c != '{' {
		return 0, 0, errors.New("expected {")
	}
	end := strings.IndexByte(p.src[p.pos:], '}')
	if end < 0 {
		return 0, 0, errors.New("unterminated {")
	}
	body := p.src[p.pos+1 : p.pos+end]
	p.pos += end + 1
	comma := strings.IndexByte(body, ',')
	if comma < 0 {
		v, err := strconv.Atoi(body)
		if err != nil {
			return 0, 0, fmt.Errorf("bad repeat %q", body)
		}
		return v, v, nil
	}
	mStr, nStr := body[:comma], body[comma+1:]
	m, err = strconv.Atoi(mStr)
	if err != nil {
		return 0, 0, fmt.Errorf("bad repeat %q", body)
	}
	if nStr == "" {
		return m, -1, nil
	}
	n, err = strconv.Atoi(nStr)
	if err != nil {
		return 0, 0, fmt.Errorf("bad repeat %q", body)
	}
	return m, n, nil
}

func (p *parser) parseAtom() (frag, error) {
	c, ok := p.peek()
	if !ok {
		return frag{}, errors.New("unexpected end of pattern")
	}
	switch c {
	case '(':
		p.pos++
		f, err := p.parseAlternation()
		if err != nil {
			return frag{}, err
		}
		if c, ok := p.peek(); !ok || c != ')' {
			return frag{}, errors.New("missing )")
		}
		p.pos++
		return f, nil
	case '^':
		p.pos++
		return p.single(inst{op: opBOL})
	case '$':
		p.pos++
		return p.single(inst{op: opEOL})
	case '[':
		cls, err := p.parseClass()
		if err != nil {
			return frag{}, err
		}
		return p.emitClass(cls)
	case '.':
		p.pos++
		var cls charClass
		cls.negate()
		// PCRE '.' excludes newline by default.
		var nl charClass
		nl.add('\n')
		for i := range cls {
			cls[i] &^= nl[i]
		}
		return p.emitClass(cls)
	case '\\':
		cls, err := p.parseEscape()
		if err != nil {
			return frag{}, err
		}
		return p.emitClass(cls)
	case '*', '+', '?', '{', ')':
		return frag{}, fmt.Errorf("misplaced %q", c)
	default:
		p.pos++
		var cls charClass
		cls.add(c)
		return p.emitClass(cls)
	}
}

func (p *parser) emitClass(cls charClass) (frag, error) {
	if p.fold {
		cls.foldCase()
	}
	return p.single(inst{op: opChar, class: cls})
}

// single emits in as a fragment of its own, its next dangling.
func (p *parser) single(in inst) (frag, error) {
	i := p.emit(in)
	if i < 0 {
		return frag{}, errors.New("program too large")
	}
	return frag{start: i, out: []int32{i * 2}}, nil
}

func (p *parser) parseEscape() (charClass, error) {
	var cls charClass
	p.pos++ // consume backslash
	c, ok := p.peek()
	if !ok {
		return cls, errors.New("trailing backslash")
	}
	p.pos++
	switch c {
	case 'd':
		cls.addRange('0', '9')
	case 'D':
		cls.addRange('0', '9')
		cls.negate()
	case 'w':
		cls.addRange('a', 'z')
		cls.addRange('A', 'Z')
		cls.addRange('0', '9')
		cls.add('_')
	case 'W':
		cls.addRange('a', 'z')
		cls.addRange('A', 'Z')
		cls.addRange('0', '9')
		cls.add('_')
		cls.negate()
	case 's':
		for _, b := range []byte{' ', '\t', '\n', '\r', '\f', '\v'} {
			cls.add(b)
		}
	case 'S':
		for _, b := range []byte{' ', '\t', '\n', '\r', '\f', '\v'} {
			cls.add(b)
		}
		cls.negate()
	case 'n':
		cls.add('\n')
	case 'r':
		cls.add('\r')
	case 't':
		cls.add('\t')
	case 'x':
		if p.pos+2 > len(p.src) {
			return cls, errors.New("truncated \\x escape")
		}
		v, err := strconv.ParseUint(p.src[p.pos:p.pos+2], 16, 8)
		if err != nil {
			return cls, fmt.Errorf("bad \\x escape %q", p.src[p.pos:p.pos+2])
		}
		p.pos += 2
		cls.add(byte(v))
	default:
		// Escaped literal (metacharacters, punctuation).
		cls.add(c)
	}
	return cls, nil
}

func (p *parser) parseClass() (charClass, error) {
	var cls charClass
	p.pos++ // consume [
	negated := false
	if c, ok := p.peek(); ok && c == '^' {
		negated = true
		p.pos++
	}
	first := true
	for {
		c, ok := p.peek()
		if !ok {
			return cls, errors.New("unterminated character class")
		}
		if c == ']' && !first {
			p.pos++
			break
		}
		first = false
		var lo byte
		if c == '\\' {
			sub, err := p.parseEscape()
			if err != nil {
				return cls, err
			}
			// An escape inside a class contributes its whole set; a
			// range like \d-x is not supported (PCRE rejects it too).
			for i := 0; i < 256; i++ {
				if sub.has(byte(i)) {
					cls.add(byte(i))
				}
			}
			continue
		}
		lo = c
		p.pos++
		// Range?
		if c2, ok := p.peek(); ok && c2 == '-' {
			if c3 := p.pos + 1; c3 < len(p.src) && p.src[c3] != ']' {
				p.pos++ // consume -
				hi, ok := p.peek()
				if !ok {
					return cls, errors.New("unterminated range")
				}
				if hi == '\\' {
					sub, err := p.parseEscape()
					if err != nil {
						return cls, err
					}
					// Use the single byte if the escape is one byte.
					var hiB byte
					count := 0
					for i := 0; i < 256; i++ {
						if sub.has(byte(i)) {
							hiB = byte(i)
							count++
						}
					}
					if count != 1 {
						return cls, errors.New("bad range endpoint")
					}
					hi = hiB
				} else {
					p.pos++
				}
				if hi < lo {
					return cls, fmt.Errorf("reversed range %c-%c", lo, hi)
				}
				cls.addRange(lo, hi)
				continue
			}
		}
		cls.add(lo)
	}
	if negated {
		cls.negate()
	}
	return cls, nil
}

// ---- execution ----

// Match reports whether the pattern matches anywhere in data
// (unanchored, like pcre_exec).
func (r *Regex) Match(data []byte) bool {
	n := len(r.prog)
	cur := make([]int32, 0, n)
	next := make([]int32, 0, n)
	onCur := make([]bool, n)
	onNext := make([]bool, n)

	var addThread func(list *[]int32, on []bool, pc int32, pos int) bool
	addThread = func(list *[]int32, on []bool, pc int32, pos int) bool {
		if on[pc] {
			return false
		}
		on[pc] = true
		in := r.prog[pc]
		switch in.op {
		case opSplit:
			if addThread(list, on, in.next, pos) {
				return true
			}
			return addThread(list, on, in.alt, pos)
		case opBOL:
			if pos == 0 {
				return addThread(list, on, in.next, pos)
			}
			return false
		case opEOL:
			if pos == len(data) {
				return addThread(list, on, in.next, pos)
			}
			return false
		case opMatch:
			return true
		default:
			*list = append(*list, pc)
			return false
		}
	}

	for pos := 0; pos <= len(data); pos++ {
		// Unanchored: seed a fresh attempt at every position.
		clear(onCur)
		for _, pc := range cur {
			onCur[pc] = true
		}
		if addThread(&cur, onCur, r.start, pos) {
			return true
		}
		if pos == len(data) {
			break
		}
		c := data[pos]
		next = next[:0]
		clear(onNext)
		matched := false
		for _, pc := range cur {
			in := r.prog[pc]
			if in.op == opChar && in.class.has(c) {
				if addThread(&next, onNext, in.next, pos+1) {
					matched = true
					break
				}
			}
		}
		if matched {
			return true
		}
		cur, next = next, cur
		onCur, onNext = onNext, onCur
	}
	return false
}

// MatchString is Match over a string.
func (r *Regex) MatchString(s string) bool {
	return r.Match([]byte(s))
}
