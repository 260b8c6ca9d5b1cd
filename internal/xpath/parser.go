package xpath

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fsm"
)

// Parse compiles an XPath expression in the supported dialect.
func Parse(expr string) (*Path, error) {
	p := &parser{in: expr}
	path, err := p.parsePath()
	if err != nil {
		return nil, fmt.Errorf("xpath: %v in %q", err, expr)
	}
	path.src = expr
	return path, nil
}

// MustParse is Parse for known-good expressions (examples, tests).
func MustParse(expr string) *Path {
	p, err := Parse(expr)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	in  string
	pos int
}

func (p *parser) peek() byte {
	if p.pos >= len(p.in) {
		return 0
	}
	return p.in[p.pos]
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) eat(s string) bool {
	if strings.HasPrefix(p.in[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *parser) parsePath() (*Path, error) {
	path := &Path{}
	p.skipSpace()
	for {
		var axis Axis
		switch {
		case p.eat("//"):
			axis = Descendant
		case p.eat("/"):
			axis = Child
		default:
			if len(path.Steps) == 0 {
				return nil, fmt.Errorf("path must start with / or //")
			}
			p.skipSpace()
			if p.pos != len(p.in) {
				return nil, fmt.Errorf("unexpected %q at offset %d", p.in[p.pos:], p.pos)
			}
			return path, nil
		}
		step, err := p.parseStep(axis)
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, step)
	}
}

func (p *parser) parseStep(axis Axis) (Step, error) {
	step := Step{Axis: axis}
	switch {
	case p.eat("text()"):
		step.Kind = TestText
	case p.eat("*"):
		step.Kind = TestAny
	case p.eat("@"):
		step.Kind = TestAttr
		if p.eat("*") {
			step.Name = "*"
			break
		}
		name, err := p.parseName()
		if err != nil {
			return step, err
		}
		step.Name = name
	default:
		name, err := p.parseName()
		if err != nil {
			return step, err
		}
		step.Kind = TestName
		step.Name = name
	}
	for p.peek() == '[' {
		pred, err := p.parsePred()
		if err != nil {
			return step, err
		}
		step.Preds = append(step.Preds, pred)
	}
	return step, nil
}

func (p *parser) parseName() (string, error) {
	start := p.pos
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '_' || c == '-' || c == '.' || c == ':' || c >= 0x80 {
			// Reject the step separator disguised as name chars.
			if c == ':' && p.pos+1 < len(p.in) && p.in[p.pos+1] == ':' {
				break
			}
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return "", fmt.Errorf("expected name at offset %d", start)
	}
	return p.in[start:p.pos], nil
}

func (p *parser) parsePred() (Pred, error) {
	var pred Pred
	if !p.eat("[") {
		return pred, fmt.Errorf("expected '['")
	}
	for {
		cond, err := p.parseCond()
		if err != nil {
			return pred, err
		}
		pred.Conds = append(pred.Conds, cond)
		p.skipSpace()
		if p.eat("and ") || p.eat("and\t") {
			continue
		}
		break
	}
	p.skipSpace()
	if !p.eat("]") {
		return pred, fmt.Errorf("expected ']' at offset %d", p.pos)
	}
	return pred, nil
}

func (p *parser) parseCond() (Cond, error) {
	var c Cond
	p.skipSpace()
	switch {
	case p.eat("contains("):
		return p.parseFnCond(FnContains)
	case p.eat("starts-with("):
		return p.parseFnCond(FnStartsWith)
	case p.eat("fn:data(") || p.eat("data("):
		p.skipSpace()
		if p.eat(".") {
			c.Dot = true
		} else {
			rel, err := p.parseRel()
			if err != nil {
				return c, err
			}
			c.Rel = rel
		}
		p.skipSpace()
		if !p.eat(")") {
			return c, fmt.Errorf("expected ')' in fn:data")
		}
	case p.peek() == '.' && !strings.HasPrefix(p.in[p.pos:], ".//"):
		p.pos++
		c.Dot = true
	default:
		rel, err := p.parseRel()
		if err != nil {
			return c, err
		}
		c.Rel = rel
	}
	p.skipSpace()
	op, err := p.parseOp()
	if err != nil {
		return c, err
	}
	c.Op = op
	p.skipSpace()
	lit, err := p.parseLiteral()
	if err != nil {
		return c, err
	}
	c.Lit = lit
	return c, nil
}

// parseFnCond parses the tail of a text-predicate condition — the '('
// was already consumed: operand ',' string-literal ')'.
func (p *parser) parseFnCond(fn CondFn) (Cond, error) {
	c := Cond{Fn: fn}
	p.skipSpace()
	if p.peek() == '.' && !strings.HasPrefix(p.in[p.pos:], ".//") {
		p.pos++
		c.Dot = true
	} else {
		rel, err := p.parseRel()
		if err != nil {
			return c, err
		}
		c.Rel = rel
	}
	p.skipSpace()
	if !p.eat(",") {
		return c, fmt.Errorf("expected ',' in %s()", fn)
	}
	p.skipSpace()
	lit, err := p.parseLiteral()
	if err != nil {
		return c, err
	}
	if lit.IsNum || lit.IsDate {
		return c, fmt.Errorf("%s() expects a string literal", fn)
	}
	c.Lit = lit
	p.skipSpace()
	if !p.eat(")") {
		return c, fmt.Errorf("expected ')' after %s()", fn)
	}
	return c, nil
}

func (p *parser) parseRel() ([]Step, error) {
	var steps []Step
	axis := Child
	if p.eat(".//") {
		axis = Descendant
	}
	for {
		step, err := p.parseStep(axis)
		if err != nil {
			return nil, err
		}
		if len(step.Preds) > 0 {
			return nil, fmt.Errorf("nested predicates are not supported")
		}
		steps = append(steps, step)
		if p.eat("//") {
			axis = Descendant
			continue
		}
		if p.eat("/") {
			axis = Child
			continue
		}
		return steps, nil
	}
}

func (p *parser) parseOp() (CmpOp, error) {
	switch {
	case p.eat("!="):
		return OpNe, nil
	case p.eat("<="):
		return OpLe, nil
	case p.eat(">="):
		return OpGe, nil
	case p.eat("="):
		return OpEq, nil
	case p.eat("<"):
		return OpLt, nil
	case p.eat(">"):
		return OpGt, nil
	}
	return 0, fmt.Errorf("expected comparison operator at offset %d", p.pos)
}

func (p *parser) parseLiteral() (Literal, error) {
	var lit Literal
	if save := p.pos; p.eat("xs:date") || p.eat("date") {
		p.skipSpace()
		if !p.eat("(") {
			p.pos = save // not a date constructor after all
		} else {
			p.skipSpace()
			inner, err := p.parseLiteral()
			if err != nil {
				return lit, err
			}
			if inner.IsNum || inner.IsDate {
				return lit, fmt.Errorf("xs:date expects a string literal")
			}
			days, ok := castDate([]byte(inner.Str), new([]fsm.Item))
			if !ok {
				return lit, fmt.Errorf("bad xs:date literal %q", inner.Str)
			}
			p.skipSpace()
			if !p.eat(")") {
				return lit, fmt.Errorf("expected ')' after xs:date literal")
			}
			return Literal{IsDate: true, Days: days, Str: inner.Str}, nil
		}
	}
	switch quote := p.peek(); quote {
	case '"', '\'':
		p.pos++
		start := p.pos
		for p.pos < len(p.in) && p.in[p.pos] != quote {
			p.pos++
		}
		if p.pos >= len(p.in) {
			return lit, fmt.Errorf("unterminated string literal")
		}
		lit.Str = p.in[start:p.pos]
		p.pos++
		return lit, nil
	default:
		start := p.pos
		for p.pos < len(p.in) {
			c := p.in[p.pos]
			if c >= '0' && c <= '9' || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
				p.pos++
				continue
			}
			break
		}
		if p.pos == start {
			return lit, fmt.Errorf("expected literal at offset %d", start)
		}
		num, err := strconv.ParseFloat(p.in[start:p.pos], 64)
		if err != nil {
			return lit, fmt.Errorf("bad numeric literal %q", p.in[start:p.pos])
		}
		lit.IsNum = true
		lit.Num = num
		return lit, nil
	}
}
