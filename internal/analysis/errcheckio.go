package analysis

import (
	"go/ast"
	"go/types"
)

// errcheck-io finds discarded errors on the durability paths. The journal
// and snapshot machinery (§IV recovery) is only as strong as its weakest
// ignored return value: a swallowed Sync error means the WAL record may
// not be on disk when the send goes out; a swallowed Close on a file
// opened for writing can hide the final flush failing; a swallowed
// journal Append turns the write-ahead log into a write-sometimes log.
//
// Flagged: an expression statement that calls Write/WriteString/Sync/
// Close/Truncate on an *os.File or on the journal's segment seam (which
// an *os.File implements on disk), or Append/Snapshot/Sync/Close on a
// journal.Journal, and drops the error. `defer f.Close()` is not flagged
// (the idiom for read-side cleanup); a deliberate discard on a write path
// takes `_ = f.Close()` plus a //lint:ignore with the reason.

// errcheckFileMethods are the *os.File methods whose error return guards
// durability.
var errcheckFileMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"Sync":        true,
	"Close":       true,
	"Truncate":    true,
}

// errcheckJournalMethods are the journal.Journal methods that must not
// have their error discarded.
var errcheckJournalMethods = map[string]bool{
	"Append":   true,
	"Snapshot": true,
	"Sync":     true,
	"Close":    true,
}

func init() {
	Register(&Check{
		Name: "errcheck-io",
		Doc: "unchecked errors from Write/Sync/Close/Truncate on *os.File and from\n" +
			"Append/Snapshot/Sync/Close on journal.Journal; a swallowed fsync or close\n" +
			"error silently weakens the §IV durability guarantee",
		Run: runErrCheckIO,
	})
}

func runErrCheckIO(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			recvType := p.TypeOf(sel.X)
			switch {
			case errcheckFileMethods[name] && isOSFile(recvType):
				p.Reportf(call.Pos(), "error from (*os.File).%s is discarded on a durability path; check it or assign to _ with a //lint:ignore reason", name)
			case errcheckFileMethods[name] && isNamedType(recvType, "journal", "segment"):
				p.Reportf(call.Pos(), "error from (journal.segment).%s is discarded on a durability path; check it or assign to _ with a //lint:ignore reason", name)
			case errcheckJournalMethods[name] && isNamedType(recvType, "journal", "Journal"):
				p.Reportf(call.Pos(), "error from (journal.Journal).%s is discarded; the write-ahead guarantee (§IV) depends on it", name)
			}
			return true
		})
	}
}

// isOSFile reports whether t is *os.File (or os.File).
func isOSFile(t types.Type) bool {
	named, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}
