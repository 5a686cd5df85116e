package lint

import (
	"fmt"
	"go/types"
	"strings"
)

// LoadFixture parses and type-checks a standalone directory (typically
// under testdata) as the given synthetic import path — which must NOT
// collide with real module paths — and marks the result as a fixture
// so path-scoped analyzers run unconditionally. Fixture files may
// import both stdlib and module packages. Only lint's tests load
// fixtures.
func (l *Loader) LoadFixture(dir, path string) (*Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		return nil, fmt.Errorf("lint: fixture path %q collides with module %q", path, l.Module)
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in fixture %s", dir)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.Fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking fixture %s: %w", dir, err)
	}
	return &Package{
		Path:    path,
		Dir:     dir,
		Fset:    l.Fset,
		Types:   p,
		Files:   files,
		Info:    l.info,
		Fixture: true,
	}, nil
}
