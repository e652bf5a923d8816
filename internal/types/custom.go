package types

import (
	"encoding/json"
	"fmt"
	"sort"

	"rcons/internal/jsonread"
	"rcons/internal/spec"
)

// Custom is a user-defined deterministic type given by an explicit
// transition table, loadable from JSON. It lets downstream users ask
// "where does MY type sit in the recoverable consensus hierarchy?"
// through cmd/rcons without writing Go:
//
//	{
//	  "name": "my-type",
//	  "initial": ["q0"],
//	  "transitions": {
//	    "q0": {"opA": {"next": "q1", "resp": "A"},
//	           "opB": {"next": "q2", "resp": "B"}},
//	    "q1": {"opA": {"next": "q1", "resp": "A"},
//	           "opB": {"next": "q1", "resp": "A"}},
//	    "q2": {"opA": {"next": "q2", "resp": "B"},
//	           "opB": {"next": "q2", "resp": "B"}}
//	  }
//	}
//
// Every state must define every operation (the table must be total), and
// all successor states must themselves have rows — Validate checks both,
// so checker searches can never fall off the table.
type Custom struct {
	// TypeName is the display name.
	TypeName string `json:"name"`
	// Initial lists the candidate initial states for witness searches;
	// when empty, all states are candidates.
	Initial []string `json:"initial"`
	// Transitions maps state → operation → (next state, response).
	Transitions map[string]map[string]CustomEdge `json:"transitions"`
	// ReadableFlag marks the type readable (default true via
	// NewCustomFromJSON; Theorems 3/8 require it).
	ReadableFlag *bool `json:"readable"`
}

// CustomEdge is one transition of a Custom type.
type CustomEdge struct {
	Next string `json:"next"`
	Resp string `json:"resp"`
}

var (
	_ spec.Type   = (*Custom)(nil)
	_ NonReadable = (*Custom)(nil)
)

// NewCustomFromJSON parses and validates a JSON transition table. It
// reads the table in one pass (decodeCustom), accepting exactly what
// json.Unmarshal into a Custom accepts; a rejected table reports
// encoding/json's error.
func NewCustomFromJSON(data []byte) (*Custom, error) {
	c := new(Custom)
	if err := decodeCustom(data, c); err != nil {
		if jerr := json.Unmarshal(data, new(Custom)); jerr != nil {
			err = jerr
		}
		return nil, fmt.Errorf("types: parse custom type: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// decodeCustom decodes data over c as json.Unmarshal does, filling its
// maps as it reads (FuzzCustomFromJSON holds it to that). A repeated
// "transitions" key merges into the map the earlier one built, and a
// repeated state or operation replaces its entry.
func decodeCustom(data []byte, c *Custom) error {
	d := customReader{r: jsonread.NewReader(data)}
	if err := d.r.Struct("a custom type", d.custom(c)); err != nil {
		return err
	}
	return d.r.End()
}

// customReader is decodeCustom's cursor, with the strings it has made:
// a table names each of its states, operations and responses many
// times, and equal names share one string.
type customReader struct {
	r     jsonread.Reader
	seen  [32]string
	nseen int
}

func (d *customReader) intern(b []byte) string {
	for _, s := range d.seen[:d.nseen] {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	if d.nseen < len(d.seen) {
		d.seen[d.nseen] = s
		d.nseen++
	}
	return s
}

func (d *customReader) str(dst *string, what string) error {
	b, ok, err := d.r.String(what)
	if ok {
		*dst = d.intern(b)
	}
	return err
}

// custom returns the member reader of a Custom object.
func (d *customReader) custom(c *Custom) func(key []byte) error {
	return func(key []byte) error {
		switch {
		case jsonread.FieldIs(key, "name"):
			return d.str(&c.TypeName, `"name"`)
		case jsonread.FieldIs(key, "initial"):
			return jsonread.Slice(&d.r, &c.Initial, `"initial"`, func(_ int, v *string) error {
				return d.str(v, "an initial state")
			})
		case jsonread.FieldIs(key, "transitions"):
			return jsonread.Map(&d.r, &c.Transitions, `"transitions"`, d.intern, d.row)
		case jsonread.FieldIs(key, "readable"):
			b, ok, err := d.r.Bool(`"readable"`)
			switch {
			case err != nil:
				return err
			case !ok:
				c.ReadableFlag = nil
			case c.ReadableFlag == nil:
				c.ReadableFlag = &b
			default:
				*c.ReadableFlag = b
			}
			return nil
		}
		return d.r.Skip()
	}
}

// row reads a state's row: a map from operation to transition.
func (d *customReader) row() (map[string]CustomEdge, error) {
	var row map[string]CustomEdge
	err := jsonread.Map(&d.r, &row, "a state's row", d.intern, d.edge)
	return row, err
}

func (d *customReader) edge() (CustomEdge, error) {
	var e CustomEdge
	err := d.r.Struct("a transition", func(key []byte) error {
		switch {
		case jsonread.FieldIs(key, "next"):
			return d.str(&e.Next, `"next"`)
		case jsonread.FieldIs(key, "resp"):
			return d.str(&e.Resp, `"resp"`)
		}
		return d.r.Skip()
	})
	return e, err
}

// Validate checks the table is non-empty, total, and closed.
func (c *Custom) Validate() error {
	if c.TypeName == "" {
		return fmt.Errorf("types: custom type needs a name")
	}
	if len(c.Transitions) == 0 {
		return fmt.Errorf("types: custom type %q has no states", c.TypeName)
	}
	ops := c.opSet()
	if len(ops) == 0 {
		return fmt.Errorf("types: custom type %q has no operations", c.TypeName)
	}
	for state, row := range c.Transitions {
		for _, op := range ops {
			edge, ok := row[op]
			if !ok {
				return fmt.Errorf("types: custom type %q: state %q missing operation %q (the table must be total)",
					c.TypeName, state, op)
			}
			if _, ok := c.Transitions[edge.Next]; !ok {
				return fmt.Errorf("types: custom type %q: state %q op %q leads to unknown state %q",
					c.TypeName, state, op, edge.Next)
			}
		}
		if len(row) != len(ops) {
			return fmt.Errorf("types: custom type %q: state %q defines %d ops, others define %d",
				c.TypeName, state, len(row), len(ops))
		}
	}
	for _, init := range c.Initial {
		if _, ok := c.Transitions[init]; !ok {
			return fmt.Errorf("types: custom type %q: initial state %q not in the table", c.TypeName, init)
		}
	}
	return nil
}

// opSet returns the operation alphabet (from an arbitrary row; Validate
// enforces totality).
func (c *Custom) opSet() []string {
	for _, row := range c.Transitions {
		ops := make([]string, 0, len(row))
		for op := range row {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		return ops
	}
	return nil
}

// Name implements spec.Type.
func (c *Custom) Name() string { return c.TypeName }

// NonReadable implements the marker; Readable() consults ReadableFlag.
func (c *Custom) NonReadable() {}

// IsReadable reports the declared readability (default true).
func (c *Custom) IsReadable() bool { return c.ReadableFlag == nil || *c.ReadableFlag }

// InitialStates implements spec.Type.
func (c *Custom) InitialStates() []spec.State {
	names := c.Initial
	if len(names) == 0 {
		names = make([]string, 0, len(c.Transitions))
		for s := range c.Transitions {
			names = append(names, s)
		}
		sort.Strings(names)
	}
	out := make([]spec.State, len(names))
	for i, s := range names {
		out[i] = spec.State(s)
	}
	return out
}

// Ops implements spec.Type.
func (c *Custom) Ops() []spec.Op {
	ops := c.opSet()
	out := make([]spec.Op, len(ops))
	for i, o := range ops {
		out[i] = spec.Op(o)
	}
	return out
}

// Apply implements spec.Type.
func (c *Custom) Apply(s spec.State, op spec.Op) (spec.State, spec.Response, error) {
	row, ok := c.Transitions[string(s)]
	if !ok {
		return "", "", fmt.Errorf("%w: %q", spec.ErrBadState, s)
	}
	edge, ok := row[string(op)]
	if !ok {
		return "", "", fmt.Errorf("%w: %s does not support %q", spec.ErrBadOp, c.TypeName, op)
	}
	return spec.State(edge.Next), spec.Response(edge.Resp), nil
}
