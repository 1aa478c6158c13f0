package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WireSymAnalyzer checks that the wire protocol's marshal and unmarshal
// sides agree, catching codec drift before it ships:
//
//   - every Kind* message-kind constant has a dispatch case in
//     Unmarshal,
//   - every type with an appendTo (marshal) method has a Kind method
//     and a matching decode<Type> function,
//   - Unmarshal dispatches each kind to the decoder of the type that
//     declares that kind,
//   - a decoder that grows a slice from the frame (message bodies are
//     items back to back, with no count to validate up front) enforces
//     MaxBatchItems, itself or in a helper it calls, so one frame can
//     never expand into unbounded work,
//   - AppendEnvelope and UnmarshalEnvelope share a layout constant
//     rather than duplicating a literal.
//
// The analyzer applies to packages named "wire".
var WireSymAnalyzer = &Analyzer{
	Name: "wiresym",
	Doc:  "wire message kinds, envelope sizes and batch limits must agree between marshal and unmarshal sides",
	Run:  runWireSym,
}

func runWireSym(pass *Pass) {
	pkg := pass.Pkg
	if pkg.Types.Name() != "wire" {
		return
	}

	var (
		kindConsts   []*ast.Ident          // Kind* constant declarations
		kindOfType   = map[string]string{} // type name -> Kind* const it returns
		kindPos      = map[string]*ast.FuncDecl{}
		appendToType = map[string]*ast.FuncDecl{} // type name -> appendTo decl
		decodeFuncs  = map[string]*ast.FuncDecl{} // decode* function decls
		funcs        = map[string]*ast.FuncDecl{} // every package-level function
		caseDecode   = map[string]string{}        // Kind* const -> decode func in Unmarshal
		unmarshal    *ast.FuncDecl
		marshalEnv   *ast.FuncDecl
		unmarshalEnv *ast.FuncDecl
	)

	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if strings.HasPrefix(name.Name, "Kind") && len(name.Name) > len("Kind") {
							kindConsts = append(kindConsts, name)
						}
					}
				}
			case *ast.FuncDecl:
				if d.Recv == nil {
					funcs[d.Name.Name] = d
				}
				switch {
				case d.Recv != nil && d.Name.Name == "Kind":
					if t, k := recvTypeName(d), soleReturnIdent(d); t != "" && strings.HasPrefix(k, "Kind") {
						kindOfType[t] = k
						kindPos[t] = d
					}
				case d.Recv != nil && d.Name.Name == "appendTo":
					if t := recvTypeName(d); t != "" {
						appendToType[t] = d
					}
				case d.Recv == nil && strings.HasPrefix(d.Name.Name, "decode"):
					decodeFuncs[d.Name.Name] = d
				case d.Recv == nil && d.Name.Name == "Unmarshal":
					unmarshal = d
				case d.Recv == nil && d.Name.Name == "AppendEnvelope":
					marshalEnv = d
				case d.Recv == nil && d.Name.Name == "UnmarshalEnvelope":
					unmarshalEnv = d
				}
			}
		}
	}

	// Index Unmarshal's dispatch switch: case KindX: ... decodeY(...).
	if unmarshal != nil {
		ast.Inspect(unmarshal.Body, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			var kinds []string
			for _, e := range cc.List {
				if id, ok := ast.Unparen(e).(*ast.Ident); ok && strings.HasPrefix(id.Name, "Kind") {
					kinds = append(kinds, id.Name)
				}
			}
			var decode string
			for _, stmt := range cc.Body {
				ast.Inspect(stmt, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && strings.HasPrefix(id.Name, "decode") {
							decode = id.Name
						}
					}
					return true
				})
			}
			for _, k := range kinds {
				caseDecode[k] = decode
			}
			return true
		})
	}

	// Every kind constant must be dispatched by Unmarshal.
	if unmarshal != nil {
		for _, kc := range kindConsts {
			if _, ok := caseDecode[kc.Name]; !ok {
				pass.Reportf(kc.Pos(), "message kind %s has no dispatch case in Unmarshal; frames of this kind are undecodable", kc.Name)
			}
		}
	}

	// Every marshal side needs its unmarshal counterpart and a wire
	// discriminator.
	for t, decl := range appendToType {
		if _, ok := decodeFuncs["decode"+t]; !ok {
			pass.Reportf(decl.Pos(), "type %s has an appendTo marshal method but no decode%s counterpart", t, t)
		}
		if _, ok := kindOfType[t]; !ok {
			pass.Reportf(decl.Pos(), "type %s has an appendTo marshal method but no Kind method returning its wire discriminator", t)
		}
	}

	// Dispatch must route each kind to the decoder of the type that
	// declares it.
	for t, kind := range kindOfType {
		decode, ok := caseDecode[kind]
		if !ok || decode == "" {
			continue
		}
		if decode != "decode"+t {
			pass.Reportf(kindPos[t].Pos(), "Unmarshal dispatches %s to %s, but %s is the kind of %s (want decode%s)", kind, decode, kind, t, t)
		}
	}

	// A decoder that grows a slice must bound it by MaxBatchItems.
	if hasConst(pkg, "MaxBatchItems") {
		for name, decl := range decodeFuncs {
			grows, bounded := false, false
			for _, d := range reachable(decl, funcs) {
				grows = grows || callsFunc(d, "make") || callsFunc(d, "append")
				bounded = bounded || referencesIdent(d, "MaxBatchItems")
			}
			if grows && !bounded {
				pass.Reportf(decl.Pos(), "%s decodes a sequence of items without MaxBatchItems validation; a hostile frame can expand into unbounded work", name)
			}
		}
	}

	// Envelope symmetry: both sides (helpers included) must share a
	// named layout constant.
	if marshalEnv != nil && unmarshalEnv != nil {
		var decodeConsts []string
		for _, d := range reachable(unmarshalEnv, funcs) {
			decodeConsts = append(decodeConsts, constIdentsUsed(pkg, d)...)
		}
		shared := false
		for _, d := range reachable(marshalEnv, funcs) {
			for _, c := range constIdentsUsed(pkg, d) {
				shared = shared || containsString(decodeConsts, c)
			}
		}
		if !shared {
			pass.Reportf(unmarshalEnv.Pos(), "AppendEnvelope and UnmarshalEnvelope do not share a layout constant; envelope framing can drift")
		}
	}
}

// reachable returns decl and every package-level function it calls,
// transitively.
func reachable(decl *ast.FuncDecl, funcs map[string]*ast.FuncDecl) []*ast.FuncDecl {
	seen := map[*ast.FuncDecl]bool{decl: true}
	out := []*ast.FuncDecl{decl}
	for i := 0; i < len(out); i++ {
		ast.Inspect(out[i].Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if callee := funcs[id.Name]; callee != nil && !seen[callee] {
						seen[callee] = true
						out = append(out, callee)
					}
				}
			}
			return true
		})
	}
	return out
}

// recvTypeName returns a method's receiver type name, stripping
// pointers and type parameters.
func recvTypeName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.ParenExpr:
			t = u.X
		case *ast.IndexExpr:
			t = u.X
		case *ast.Ident:
			return u.Name
		default:
			return ""
		}
	}
}

// soleReturnIdent returns the identifier name of a method's single
// `return X` statement, or "".
func soleReturnIdent(d *ast.FuncDecl) string {
	if d.Body == nil || len(d.Body.List) != 1 {
		return ""
	}
	ret, ok := d.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return ""
	}
	if id, ok := ast.Unparen(ret.Results[0]).(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// hasConst reports whether the package scope declares the named
// constant.
func hasConst(pkg *Package, name string) bool {
	_, ok := pkg.Types.Scope().Lookup(name).(*types.Const)
	if ok {
		return true
	}
	// Syntactic fallback for packages with type errors.
	return constDeclPos(pkg, name) != 0
}

// constDeclPos finds the declaration position of a package-level
// constant by name, or 0.
func constDeclPos(pkg *Package, name string) (pos token.Pos) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, n := range vs.Names {
						if n.Name == name {
							return n.Pos()
						}
					}
				}
			}
		}
	}
	return 0
}

// callsFunc reports whether decl's body contains a call to the named
// function.
func callsFunc(decl *ast.FuncDecl, name string) bool {
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

// referencesIdent reports whether decl's body references the named
// identifier.
func referencesIdent(decl *ast.FuncDecl, name string) bool {
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// constIdentsUsed collects the names of package-level constants
// referenced by decl's body.
func constIdentsUsed(pkg *Package, decl *ast.FuncDecl) []string {
	var out []string
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if _, isConst := pkg.Info.Uses[id].(*types.Const); isConst {
			out = append(out, id.Name)
		}
		return true
	})
	return out
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
