// Package unsetfield is the fixture of TestUnsetFieldsFixture. Its
// exported struct types are in scope; image.Point, an unexported type
// and unexported fields are not. Fields whose comment starts "unset"
// are the ones the check must report.
package unsetfield

import "image"

// Options is filled by its caller and copied into Config.
type Options struct {
	Dead  bool // unset: nothing writes it
	Relay int  // unset: fed only by a copy of Config.Relay, which is fed only by it
	Size  int
}

// Config is built from Options.
type Config struct {
	Dead    bool   // unset: fed only by a copy of Options.Dead
	Relay   int    // unset: fed only by a copy of Options.Relay
	X       int    // fed by a copy of image.Point.X, which is out of scope
	Size    int    // fed by a copy of Options.Size, which a literal sets
	Sizes   [2]int // written only through x.F[i]
	Inner   Inner  // written only through x.F.G =
	Addr    int    // written only through &x.F
	Count   int    // written only by ++
	Scale   int    // written only by op=
	Default int    // written only by a default fill in a plain function
	Fill    int    // unset: written only by a value-receiver default fill
	hidden  int
}

// Inner is written field by field through Config.Inner.
type Inner struct {
	G int
}

// Pair is only ever built positionally, which writes every field.
type Pair struct {
	A, B int
}

// local's exported field is out of scope: its type is unexported.
type local struct {
	Never int
}

func build(o Options, p image.Point) (Config, Pair, local) {
	c := Config{Dead: o.Dead, X: p.X, Size: o.Size}
	c.Relay = o.Relay
	o.Relay = c.Relay
	c.Sizes[0] = 1
	c.Inner.G = 2
	set(&c.Addr)
	c.Count++
	c.Scale *= 2
	if c.Default == 0 {
		c.Default = 3
	}
	_ = Options{Size: 4}
	return c, Pair{1, 2}, local{}
}

func set(p *int) { *p = 5 }

// withDefaults copies a default into its caller's value, which is not a
// write of Fill.
func (c Config) withDefaults() Config {
	if c.Fill == 0 {
		c.Fill = 6
	}
	return c
}
