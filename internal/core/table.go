package core

// This file holds the sharded entity storage behind Model.users and
// Model.services, and the matching sharded dirty lists behind incremental
// view publication.
//
// tableShards is deliberately the same constant as viewShardCount and
// uses the same shardOf hash, so a model table shard and the view shard
// it publishes into hold exactly the same ids: BuildView freezes entities
// per shard without re-hashing, and RefreshView hands each view shard its
// own model shard and its own dirty list (view.go).
const tableShards = viewShardCount

// entityTable is one side (users or services) of the model's learned
// state: a fixed array of hash shards. Like the Model it belongs to, it
// is not safe for concurrent use.
type entityTable struct {
	shards [tableShards]map[int]*entity
}

func newEntityTable() *entityTable {
	t := &entityTable{}
	for i := range t.shards {
		t.shards[i] = make(map[int]*entity)
	}
	return t
}

func (t *entityTable) get(id int) (*entity, bool) {
	e, ok := t.shards[shardOf(id)][id]
	return e, ok
}

func (t *entityTable) put(id int, e *entity) {
	t.shards[shardOf(id)][id] = e
}

func (t *entityTable) remove(id int) {
	delete(t.shards[shardOf(id)], id)
}

// len sums the shard sizes. O(tableShards) — cheap relative to how rarely
// entity counts are read (stats endpoints, view builds).
func (t *entityTable) len() int {
	n := 0
	for i := range t.shards {
		n += len(t.shards[i])
	}
	return n
}

// each visits every entity in unspecified order.
func (t *entityTable) each(f func(id int, e *entity)) {
	for i := range t.shards {
		for id, e := range t.shards[i] {
			f(id, e)
		}
	}
}

// dirtyList records entities touched since the last published view,
// sharded exactly like entityTable so a refresh walks one shard's list
// against that shard's map. The entity's own dirty flag keeps an id from
// being listed twice between publishes, so an applied sample costs a flag
// test, not a map write; freezing the entity into a view clears it
// (page.go). A nil *dirtyList means tracking is off.
type dirtyList struct {
	shards [tableShards][]int
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
