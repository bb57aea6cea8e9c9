package core

import (
	"slices"
	"testing"

	"ring/internal/proto"
)

// TestRolesOf pins the role set as a function of the configuration
// alone. The cluster is 3 coordinators (0-2), 2 redundancy nodes (3, 4)
// and a spare (5) under five memgests: Rep(1,3), Rep(3,3), Rep(4,3) —
// whose third replica is the next coordinator in rotation — SRS(3,1,3),
// which uses only the first redundancy node, and SRS(3,2,3).
func TestRolesOf(t *testing.T) {
	cfg, err := BootConfig(ClusterSpec{Shards: 3, Redundant: 2, Spares: 1, Memgests: []proto.Scheme{
		proto.Rep(1, 3), proto.Rep(3, 3), proto.Rep(4, 3), proto.SRS(3, 1, 3), proto.SRS(3, 2, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	every := func(mg proto.MemgestID, kind recoveredRole) []role {
		return []role{{mg, 0, kind}, {mg, 1, kind}, {mg, 2, kind}}
	}
	for _, tc := range []struct {
		name string
		id   proto.NodeID
		want []role
	}{
		{"a coordinator that is also a rotated replica", 0, []role{
			{1, 0, roleCoordinator}, {2, 0, roleCoordinator},
			{3, 0, roleCoordinator}, {3, 2, roleReplica},
			{4, 0, roleCoordinator}, {5, 0, roleCoordinator}}},
		{"the last coordinator backs the one before it", 2, []role{
			{1, 2, roleCoordinator}, {2, 2, roleCoordinator},
			{3, 2, roleCoordinator}, {3, 1, roleReplica},
			{4, 2, roleCoordinator}, {5, 2, roleCoordinator}}},
		{"the first redundancy node: nothing of Rep(1,s)", 3, slices.Concat(
			every(2, roleReplica), every(3, roleReplica), every(4, roleParity), every(5, roleParity))},
		{"a redundancy node past a memgest's m parity nodes", 4, slices.Concat(
			every(2, roleReplica), every(3, roleReplica), every(5, roleParity))},
		{"a spare", 5, nil},
		{"a node the configuration does not name", 9, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := rolesOf(cfg, tc.id); !slices.Equal(got, tc.want) {
				t.Fatalf("rolesOf(%d) = %v, want %v", tc.id, got, tc.want)
			}
		})
	}
}
