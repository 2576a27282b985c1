package main

import (
	"flag"
	"reflect"
	"testing"

	"jamm/internal/site"
)

// TestFlagsAreTheConfig checks that no flags parse to
// site.DefaultSensorHostConfig(), and that the flags and the config's fields
// match one to one: setting every flag changes every field.
func TestFlagsAreTheConfig(t *testing.T) {
	def := site.DefaultSensorHostConfig()
	cfg := def
	fs := flag.NewFlagSet("jammd", flag.ContinueOnError)
	bindFlags(fs, &cfg)
	if err := fs.Parse(nil); err != nil || !reflect.DeepEqual(cfg, def) {
		t.Fatalf("no flags parse to %+v (%v), want site.DefaultSensorHostConfig() %+v", cfg, err, def)
	}
	var args []string
	fs.VisitAll(func(f *flag.Flag) {
		kind, _ := flag.UnquoteUsage(f)
		v := map[string]string{"": "true", "int": "7", "duration": "7s"}[kind]
		if v == "" {
			v = "x" // string, or a repeatable value
		}
		args = append(args, "-"+f.Name+"="+v)
	})
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	fields := 0
	var unchanged func(got, def reflect.Value)
	unchanged = func(got, def reflect.Value) {
		for i := 0; i < got.NumField(); i++ {
			if f := got.Type().Field(i); f.Anonymous {
				unchanged(got.Field(i), def.Field(i))
			} else if fields++; reflect.DeepEqual(got.Field(i).Interface(), def.Field(i).Interface()) {
				t.Errorf("no flag sets %s", f.Name)
			}
		}
	}
	unchanged(reflect.ValueOf(cfg), reflect.ValueOf(def))
	if fields != len(args) {
		t.Errorf("%d config fields for %d flags", fields, len(args))
	}
}
