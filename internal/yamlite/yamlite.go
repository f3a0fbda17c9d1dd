// Package yamlite is a small, dependency-free parser for the YAML subset
// that MergeKit-style merge recipes use:
//
//   - block mappings (indentation-nested)
//   - block sequences ("- item"), including sequences of mappings
//   - flow sequences ("[0, 16]")
//   - scalars: strings (bare, 'single' or "double" quoted), integers,
//     floats, booleans, null
//   - '#' comments and blank lines
//
// Parsed documents are plain Go values: map[string]any, []any, string,
// int64, float64, bool and nil. A matching Marshal emits the same subset,
// and Parse(Marshal(v)) round-trips every value Marshal accepts.
//
// It is intentionally not a general YAML implementation: anchors, aliases,
// multi-document streams, block scalars and tabs are rejected with errors
// naming the offending line.
package yamlite

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse decodes a yamlite document. An empty document decodes to nil.
type line struct {
	indent int
	text   string
	num    int
}

// Parse decodes src into nested maps, slices and scalars.
func Parse(src []byte) (any, error) {
	lines, err := splitLines(string(src))
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, nil
	}
	p := &parser{lines: lines}
	v, err := p.parseNode(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		return nil, fmt.Errorf("yamlite: line %d: unexpected content %q (bad indentation?)", p.lines[p.pos].num, p.lines[p.pos].text)
	}
	return v, nil
}

// splitLines strips comments and blank lines and computes indents.
func splitLines(src string) ([]line, error) {
	var out []line
	for i, raw := range strings.Split(src, "\n") {
		num := i + 1
		if strings.Contains(raw, "\t") {
			return nil, fmt.Errorf("yamlite: line %d: tabs are not allowed", num)
		}
		text := stripComment(raw)
		trimmed := strings.TrimRight(text, " ")
		body := strings.TrimLeft(trimmed, " ")
		if body == "" {
			continue
		}
		if body == "---" {
			if len(out) == 0 {
				continue // leading document marker is tolerated
			}
			return nil, fmt.Errorf("yamlite: line %d: multi-document streams are not supported", num)
		}
		if strings.HasPrefix(body, "&") || strings.HasPrefix(body, "*") {
			return nil, fmt.Errorf("yamlite: line %d: anchors/aliases are not supported", num)
		}
		out = append(out, line{indent: len(trimmed) - len(body), text: body, num: num})
	}
	return out, nil
}

// stripComment removes a trailing '#' comment, honouring quotes.
func stripComment(s string) string {
	var inS, inD bool
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '\\':
			// Marshal writes double-quoted scalars with strconv.Quote: an
			// escaped character, a quote above all, never ends the string.
			if inD {
				i++
			}
		case '#':
			if !inS && !inD && (i == 0 || s[i-1] == ' ') {
				return s[:i]
			}
		}
	}
	return s
}

type parser struct {
	lines []line
	pos   int
}

func (p *parser) cur() (line, bool) {
	if p.pos >= len(p.lines) {
		return line{}, false
	}
	return p.lines[p.pos], true
}

// parseNode parses the map or sequence starting at the current line, which
// must sit at exactly the given indent.
func (p *parser) parseNode(indent int) (any, error) {
	l, ok := p.cur()
	if !ok {
		return nil, nil
	}
	if l.indent != indent {
		return nil, fmt.Errorf("yamlite: line %d: expected indent %d, got %d", l.num, indent, l.indent)
	}
	if l.text == "-" || strings.HasPrefix(l.text, "- ") {
		return p.parseSeq(indent)
	}
	return p.parseMap(indent)
}

func (p *parser) parseSeq(indent int) (any, error) {
	var out []any
	for {
		l, ok := p.cur()
		if !ok || l.indent != indent || !(l.text == "-" || strings.HasPrefix(l.text, "- ")) {
			break
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(l.text, "-"), " ")
		if rest == "" {
			// Item body on the following, deeper-indented lines.
			p.pos++
			next, ok := p.cur()
			if !ok || next.indent <= indent {
				out = append(out, nil)
				continue
			}
			v, err := p.parseNode(next.indent)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			continue
		}
		if k, _, isMap := splitKey(rest); isMap && k != "" {
			// "- key: value" starts an inline mapping whose further keys
			// sit at the dash's indent + 2 (the column of `key`). Rewrite
			// the current line as that mapping line and parse a map.
			p.lines[p.pos] = line{indent: indent + 2, text: rest, num: l.num}
			v, err := p.parseMap(indent + 2)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			continue
		}
		v, err := parseScalar(rest, l.num)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		p.pos++
	}
	return out, nil
}

func (p *parser) parseMap(indent int) (any, error) {
	out := map[string]any{}
	for {
		l, ok := p.cur()
		if !ok || l.indent != indent {
			break
		}
		if l.text == "-" || strings.HasPrefix(l.text, "- ") {
			break
		}
		key, rest, isMap := splitKey(l.text)
		if !isMap {
			return nil, fmt.Errorf("yamlite: line %d: expected \"key: value\", got %q", l.num, l.text)
		}
		if key == "" {
			return nil, fmt.Errorf("yamlite: line %d: empty key", l.num)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("yamlite: line %d: duplicate key %q", l.num, key)
		}
		if rest != "" {
			v, err := parseScalar(rest, l.num)
			if err != nil {
				return nil, err
			}
			out[key] = v
			p.pos++
			continue
		}
		// Value is a nested block (or null if nothing deeper follows).
		p.pos++
		next, ok := p.cur()
		if !ok || next.indent <= indent {
			out[key] = nil
			continue
		}
		v, err := p.parseNode(next.indent)
		if err != nil {
			return nil, err
		}
		out[key] = v
	}
	return out, nil
}

// splitKey splits "key: rest" (or "key:") at the first unquoted,
// un-bracketed colon followed by space/EOL. It returns isMap=false when the
// text is not a mapping entry.
func splitKey(s string) (key, rest string, isMap bool) {
	var inS, inD bool
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '\\':
			// Marshal writes double-quoted scalars with strconv.Quote: an
			// escaped character, a quote above all, never ends the string.
			if inD {
				i++
			}
		case '[', '{':
			if !inS && !inD {
				depth++
			}
		case ']', '}':
			if !inS && !inD {
				depth--
			}
		case ':':
			if inS || inD || depth != 0 {
				continue
			}
			if i+1 == len(s) {
				return unquoteKey(s[:i]), "", true
			}
			if s[i+1] == ' ' {
				return unquoteKey(s[:i]), strings.TrimSpace(s[i+1:]), true
			}
		}
	}
	return "", "", false
}

func unquoteKey(s string) string {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		if u, err := strconv.Unquote(s); err == nil {
			return u
		}
		return s[1 : len(s)-1]
	}
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'")
	}
	return s
}

// parseScalar decodes a scalar or flow sequence.
func parseScalar(s string, num int) (any, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return nil, nil
	case strings.HasPrefix(s, "["):
		return parseFlowSeq(s, num)
	case strings.HasPrefix(s, "{"):
		return nil, fmt.Errorf("yamlite: line %d: flow mappings are not supported", num)
	case strings.HasPrefix(s, "|") || strings.HasPrefix(s, ">"):
		return nil, fmt.Errorf("yamlite: line %d: block scalars are not supported", num)
	case strings.HasPrefix(s, "&") || strings.HasPrefix(s, "*"):
		return nil, fmt.Errorf("yamlite: line %d: anchors/aliases are not supported", num)
	case s[0] == '"':
		if len(s) < 2 || s[len(s)-1] != '"' {
			return nil, fmt.Errorf("yamlite: line %d: unterminated double-quoted string", num)
		}
		return strconv.Unquote(s)
	case s[0] == '\'':
		if len(s) < 2 || s[len(s)-1] != '\'' {
			return nil, fmt.Errorf("yamlite: line %d: unterminated single-quoted string", num)
		}
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
	}
	switch s {
	case "null", "~":
		return nil, nil
	case "true", "True":
		return true, nil
	case "false", "False":
		return false, nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil
}

// parseFlowSeq decodes "[a, b, [c, d]]".
func parseFlowSeq(s string, num int) (any, error) {
	if !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("yamlite: line %d: unterminated flow sequence", num)
	}
	inner := s[1 : len(s)-1]
	parts, err := splitFlow(inner, num)
	if err != nil {
		return nil, err
	}
	out := make([]any, 0, len(parts))
	for _, part := range parts {
		v, err := parseScalar(part, num)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// splitFlow splits flow-sequence items at top-level commas.
func splitFlow(s string, num int) ([]string, error) {
	var parts []string
	var inS, inD bool
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '\\':
			// Marshal writes double-quoted scalars with strconv.Quote: an
			// escaped character, a quote above all, never ends the string.
			if inD {
				i++
			}
		case '[':
			if !inS && !inD {
				depth++
			}
		case ']':
			if !inS && !inD {
				depth--
				if depth < 0 {
					return nil, fmt.Errorf("yamlite: line %d: unbalanced brackets", num)
				}
			}
		case ',':
			if !inS && !inD && depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	if inS || inD || depth != 0 {
		return nil, fmt.Errorf("yamlite: line %d: unbalanced quotes or brackets", num)
	}
	last := strings.TrimSpace(s[start:])
	if last != "" || len(parts) > 0 {
		parts = append(parts, last)
	}
	// Drop a single trailing empty item from "a, b," style lists.
	if len(parts) > 0 && strings.TrimSpace(parts[len(parts)-1]) == "" {
		parts = parts[:len(parts)-1]
	}
	return parts, nil
}
