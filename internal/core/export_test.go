package core

import "reflect"

// Hooks for the external core_test package, which links the policy
// classes of the packages above core.

// EncodeMatchesReference is encodeMatchesReference.
var EncodeMatchesReference = encodeMatchesReference

// PolicyPrototypes returns a new zero instance of every registered
// policy class, by class name.
func PolicyPrototypes() map[string]Policy {
	policyClasses.mu.RLock()
	defer policyClasses.mu.RUnlock()
	out := make(map[string]Policy, len(policyClasses.byName))
	for name, rt := range policyClasses.byName {
		out[name] = reflect.New(rt.t.Elem()).Interface().(Policy)
	}
	return out
}
