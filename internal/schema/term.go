// Package schema models a data-integration mediated schema: terms, atoms,
// and conjunctive queries, plus substitution, unification, and a
// datalog-style text parser.
//
// Conjunctive queries follow the paper's notation:
//
//	Q(M,R) :- play-in(ford,M), review-of(R,M)
//
// Identifiers beginning with an upper-case letter are variables; all other
// identifiers, quoted strings, and numbers are constants (standard datalog
// convention).
package schema

// Term is a variable or a constant appearing as an atom argument.
type Term struct {
	// Name is the variable name or the constant's lexical form.
	Name string
	// Const reports whether the term is a constant.
	Const bool
}

// Var returns a variable term.
func Var(name string) Term { return Term{Name: name} }

// Const returns a constant term.
func Const(value string) Term { return Term{Name: value, Const: true} }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return !t.Const }

// String renders the term; constants that do not look like plain
// identifiers are quoted, with '\\' and '"' escaped by a backslash.
func (t Term) String() string {
	if !t.Const || !needsQuoting(t.Name) {
		return t.Name
	}
	return string(t.AppendTo(make([]byte, 0, len(t.Name)+2)))
}

// AppendTo appends t's rendering, exactly String's bytes, to dst.
func (t Term) AppendTo(dst []byte) []byte {
	if !t.Const || !needsQuoting(t.Name) {
		return append(dst, t.Name...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(t.Name); i++ {
		if c := t.Name[i]; c == '\\' || c == '"' {
			dst = append(dst, '\\')
		}
		dst = append(dst, t.Name[i])
	}
	return append(dst, '"')
}

// needsQuoting reports whether a constant's lexical form would be
// re-parsed as a variable or fail to scan as an identifier/number.
func needsQuoting(s string) bool {
	if s == "" {
		return true
	}
	for i, r := range s {
		if i == 0 && (r >= 'A' && r <= 'Z') {
			return true // would parse as a variable
		}
		if !isIdentRune(r) {
			return true
		}
	}
	return false
}

func isIdentRune(r rune) bool {
	switch {
	case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		return true
	case r == '_', r == '-', r == '.':
		return true
	}
	return false
}
