package core

import (
	"github.com/activexml/axml/internal/rewrite"
	"github.com/activexml/axml/internal/tree"
)

// traceTarget labels the node an NFQ was generated for.
func traceTarget(nfq *rewrite.NFQ) string {
	if nfq == nil {
		return ""
	}
	return nfq.TargetLabel()
}

func tracePath(call *tree.Node) string {
	if call.Parent == nil {
		return "(detached)"
	}
	return call.PathString()
}
