package core

import "github.com/qoslab/amf/internal/idtab"

// This file holds the entity storage behind Model.users and
// Model.services, and the sharded dirty lists behind incremental view
// publication.

// entityTable is one side (users or services) of the model's learned
// state: id → entity in one open-addressed table (internal/idtab), the
// lookup every applied sample pays twice. Like the Model it belongs to,
// it is not safe for concurrent use.
type entityTable = idtab.Table[*entity]

// dirtyList records entities touched since the last published view,
// sharded by the view's own shardOf so RefreshView hands each view shard
// exactly the ids of its own that were touched (view.go). The entity's
// dirty flag keeps an id from being listed twice between publishes, so an
// applied sample costs a flag test, not a table write; freezing the
// entity into a view clears it (page.go). A nil *dirtyList means tracking
// is off.
type dirtyList struct {
	shards [viewShardCount][]int
}

// mark lists a live entity as touched, once.
func (d *dirtyList) mark(id int, e *entity) {
	if !e.dirty && d != nil {
		e.dirty = true
		d.add(id)
	}
}

// add lists an id unconditionally — what a removal does, its entity and
// flag being gone.
func (d *dirtyList) add(id int) {
	if d != nil {
		d.shards[shardOf(id)] = append(d.shards[shardOf(id)], id)
	}
}

// size returns how many ids are listed, and in how many shards.
func (d *dirtyList) size() (ids, shards int) {
	for _, l := range d.shards {
		if len(l) > 0 {
			ids += len(l)
			shards++
		}
	}
	return ids, shards
}
