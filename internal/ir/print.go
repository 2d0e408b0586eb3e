package ir

import "strconv"

// String renders the function in the textual IR format accepted by
// Parse. Branch successors are printed after "->" since edges live on
// blocks, not instructions.
func (f *Func) String() string {
	// Holds a §8 kernel's printing, so the string is the one allocation.
	var buf [1024]byte
	return string(f.AppendTo(buf[:0]))
}

// AppendTo appends f's String form to b and returns the extended
// buffer, so a caller that only hashes or writes the text (the service
// cache key) needs no string of it.
func (f *Func) AppendTo(b []byte) []byte {
	b = append(b, "func "...)
	b = append(b, f.Name...)
	b = append(b, '(')
	for i, p := range f.Params {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendReg(b, p)
	}
	b = append(b, ") {\n"...)
	for _, blk := range f.Blocks {
		b = append(b, blk.Name...)
		b = append(b, ":\n"...)
		for _, in := range blk.Instrs {
			b = append(b, "  "...)
			b = in.appendTo(b)
			if in.Op.IsTerminator() && len(blk.Succs) > 0 {
				if in.Op == OpJmp {
					b = append(b, ' ')
					b = append(b, blk.Succs[0].Name...)
				} else {
					b = append(b, " -> "...)
					for i, s := range blk.Succs {
						if i > 0 {
							b = append(b, ", "...)
						}
						b = append(b, s.Name...)
					}
				}
			}
			b = append(b, '\n')
		}
	}
	return append(b, "}\n"...)
}

// appendReg appends the "vN" spelling of r.
func appendReg(b []byte, r Reg) []byte {
	return strconv.AppendInt(append(b, 'v'), int64(r), 10)
}
