package server

import (
	"math"
	"strconv"

	"mpx/internal/oracle"
)

// query is a decoded query body, the form the handler validates. Both
// decoders produce it: decodeFast for the one well-formed shape, and
// decodeStrict into queryRequest, then fromWire, for everything else.
type query struct {
	App      string
	Weighted bool
	Beta     float64
	Seed     uint64
	Op       string
	Level    *int
	Pairs    []oracle.Pair
	Verts    []uint32
	// hasPairs and hasVerts record a "pairs" or "verts" key that is not
	// null: encoding/json decodes one to a non-nil slice, even when empty.
	hasPairs, hasVerts bool
	// badPair is the index of the first pair that is not [u, v], and
	// badArity its length; badPair is -1 when every pair has two entries.
	badPair, badArity int
	level             int // Level's target on the fast path
}

// fromWire sets q from the strict decoder's result.
func (q *query) fromWire(w *queryRequest) {
	*q = query{
		App:      w.App,
		Weighted: w.Weighted,
		Beta:     w.Beta,
		Seed:     w.Seed,
		Op:       w.Op,
		Level:    w.Level,
		Pairs:    q.Pairs[:0],
		Verts:    w.Verts,
		hasPairs: w.Pairs != nil,
		hasVerts: w.Verts != nil,
		badPair:  -1,
	}
	for i, p := range w.Pairs {
		var pr oracle.Pair
		if len(p) == 2 {
			pr = oracle.Pair{U: p[0], V: p[1]}
		} else if q.badPair < 0 {
			q.badPair, q.badArity = i, len(p)
		}
		q.Pairs = append(q.Pairs, pr)
	}
}

// Bits of decodeFast's seen-key set.
const (
	keyApp = 1 << iota
	keyWeighted
	keyBeta
	keySeed
	keyOp
	keyLevel
	keyPairs
	keyVerts
)

// decodeFast decodes a query body without reflection, reusing q's pair
// and vertex memory. It accepts only the one well-formed shape:
//   - exact-case keys, each at most once;
//   - strings of ASCII with no escapes;
//   - integers with no sign, fraction, exponent, leading zero or
//     overflow, and a beta that strconv.ParseFloat accepts, as
//     encoding/json parses it;
//   - pairs of exactly two vertices;
//   - nothing after the object but JSON whitespace.
//
// On anything else it reports false, and the caller decodes the same
// bytes with decodeStrict, so every error message comes from one decoder.
func (q *query) decodeFast(body []byte) bool {
	*q = query{Pairs: q.Pairs[:0], Verts: q.Verts[:0], badPair: -1}
	s := scanner{b: body}
	if !s.next('{') {
		return false
	}
	if !s.next('}') {
		var seen uint8
		for {
			key, ok := s.str()
			if !ok || !s.next(':') {
				return false
			}
			var bit uint8
			switch string(key) {
			case "app":
				bit = keyApp
				var v []byte
				v, ok = s.str()
				q.App = name(v, "lowstretch")
			case "weighted":
				bit = keyWeighted
				q.Weighted = s.word("true")
				ok = q.Weighted || s.word("false")
			case "beta":
				bit = keyBeta
				q.Beta, ok = s.float()
			case "seed":
				bit = keySeed
				q.Seed, ok = s.uint(math.MaxUint64)
			case "op":
				bit = keyOp
				var v []byte
				v, ok = s.str()
				q.Op = name(v, "dist", "cluster", "same")
			case "level":
				bit = keyLevel
				var v uint64
				v, ok = s.uint(math.MaxInt)
				q.level, q.Level = int(v), &q.level
			case "pairs":
				bit = keyPairs
				q.hasPairs = true
				ok = s.list(func() bool {
					if !s.next('[') {
						return false
					}
					u, ok := s.uint(math.MaxUint32)
					if !ok || !s.next(',') {
						return false
					}
					v, ok := s.uint(math.MaxUint32)
					q.Pairs = append(q.Pairs, oracle.Pair{U: uint32(u), V: uint32(v)})
					return ok && s.next(']')
				})
			case "verts":
				bit = keyVerts
				q.hasVerts = true
				ok = s.list(func() bool {
					v, ok := s.uint(math.MaxUint32)
					q.Verts = append(q.Verts, uint32(v))
					return ok
				})
			}
			if !ok || bit == 0 || seen&bit != 0 {
				return false
			}
			seen |= bit
			if s.next('}') {
				break
			}
			if !s.next(',') {
				return false
			}
		}
	}
	s.space()
	return s.i == len(s.b)
}

// name returns b as a string, sharing the constant when b spells one of
// known, so a well-formed request allocates nothing for it.
func name(b []byte, known ...string) string {
	for _, k := range known {
		if string(b) == k {
			return k
		}
	}
	return string(b)
}

// scanner walks a body for decodeFast. Each reader skips leading
// whitespace and reports false on a byte outside the accepted shape.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// next consumes c when it is the next byte after whitespace.
func (s *scanner) next(c byte) bool {
	s.space()
	return s.skip(c)
}

// skip consumes c when it is the next byte.
func (s *scanner) skip(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// word consumes the literal w.
func (s *scanner) word(w string) bool {
	s.space()
	if len(s.b)-s.i >= len(w) && string(s.b[s.i:s.i+len(w)]) == w {
		s.i += len(w)
		return true
	}
	return false
}

// str reads a string of ASCII with no escapes and returns its contents,
// which alias the body.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// uint reads an integer literal with no sign, fraction, exponent or
// leading zero, whose value is at most max.
func (s *scanner) uint(max uint64) (uint64, bool) {
	s.space()
	if s.skip('0') {
		return 0, true
	}
	b, i := s.b, s.i
	cut, lim := max/10, max%10
	var v uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > cut || v == cut && d > lim {
			return 0, false
		}
		v = v*10 + d
	}
	ok := i > s.i
	s.i = i
	return v, ok
}

// float reads a JSON number and parses it with strconv.ParseFloat, as
// encoding/json does for a float64 field.
func (s *scanner) float() (float64, bool) {
	s.space()
	start := s.i
	s.skip('-')
	if !s.skip('0') && s.digits() == 0 {
		return 0, false
	}
	if s.skip('.') && s.digits() == 0 {
		return 0, false
	}
	if s.skip('e') || s.skip('E') {
		if !s.skip('+') {
			s.skip('-')
		}
		if s.digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// list reads a JSON array, calling elem to read each element.
func (s *scanner) list(elem func() bool) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.next(']') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// appendQueryResponse appends r to b as marshalBody writes it: the bytes
// of json.Marshal, then a newline. r's strings must need no JSON
// escaping, as the handler's do: the graph and checksum are hex and the
// op is dist, cluster or same. It reports false when a weighted distance
// is not finite, which json.Marshal refuses; the caller then goes through
// marshalBody and fails the same way.
func appendQueryResponse(b []byte, r *queryResponse) ([]byte, bool) {
	for _, d := range r.WDists {
		if math.IsInf(d, 0) || math.IsNaN(d) {
			return b, false
		}
	}
	b = append(b, `{"graph":"`...)
	b = append(b, r.Graph...)
	b = append(b, `","op":"`...)
	b = append(b, r.Op...)
	b = append(b, '"')
	if r.Level != nil {
		b = append(b, `,"level":`...)
		b = strconv.AppendInt(b, int64(*r.Level), 10)
	}
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	b = appendArray(b, `,"dists":[`, r.Dists, func(b []byte, d int32) []byte {
		return strconv.AppendInt(b, int64(d), 10)
	})
	b = appendArray(b, `,"wdists":[`, r.WDists, appendFloat)
	b = appendArray(b, `,"clusters":[`, r.Clusters, func(b []byte, c uint32) []byte {
		return strconv.AppendUint(b, uint64(c), 10)
	})
	b = appendArray(b, `,"same":[`, r.Same, strconv.AppendBool)
	b = append(b, `,"checksum":"`...)
	b = append(b, r.Checksum...)
	return append(b, "\"}\n"...), true
}

// appendArray appends open, xs's elements separated by commas, and "]",
// or nothing when xs is empty (the fields are omitempty).
func appendArray[T any](b []byte, open string, xs []T, elem func([]byte, T) []byte) []byte {
	if len(xs) == 0 {
		return b
	}
	b = append(b, open...)
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, x)
	}
	return append(b, ']')
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6
// and from 1e21 up, with a single-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
