package relation

// HashValue maps a value to a bucket in [0, parts). It is the hash function
// h_A of HCube (§II-A): every site must agree on it, so it is a pure
// function of the value. A 64-bit finalizer (splitmix64) avoids the
// pathological collisions a plain modulo would produce on consecutive vertex
// ids, which matters because graph datasets number vertices densely.
func HashValue(v Value, parts int) int {
	if parts <= 1 {
		return 0
	}
	x := uint64(v)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(parts))
}

// HashTuple combines all values of a tuple into one bucket in [0, parts);
// used to hash-partition intermediate results in the multi-round baselines.
func HashTuple(t Tuple, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := uint64(1469598103934665603) // FNV offset basis
	for _, v := range t {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	return int(h % uint64(parts))
}

// PartitionBy splits r into parts relations by hashing the listed columns.
// Tuples with equal values on cols land in the same partition — the
// contract hash joins rely on.
//
// It runs in two passes: hash every row into a partition id (a pure column
// scan for a single-column key), count, then scatter each column once into
// exact-size partition columns.
func (r *Relation) PartitionBy(cols []int, parts int) []*Relation {
	n := r.Len()
	part, counts := r.partitionIDs(cols, parts, n)
	out := make([]*Relation, parts)
	k := len(r.Attrs)
	outCols := make([][][]Value, parts)
	for p := 0; p < parts; p++ {
		outCols[p] = make([][]Value, k)
		for j := 0; j < k; j++ {
			outCols[p][j] = make([]Value, counts[p])
		}
	}
	cur := make([]int32, parts)
	for j, col := range r.cols {
		for i := range cur {
			cur[i] = 0
		}
		for i := 0; i < n; i++ {
			p := part[i]
			outCols[p][j][cur[p]] = col[i]
			cur[p]++
		}
	}
	for p := 0; p < parts; p++ {
		out[p] = FromColumns(r.Name, r.Attrs, outCols[p])
	}
	return out
}

// RoundRobin deals the tuples of r over parts relations (tuple i goes to
// partition i mod parts), gathering each partition column with one strided
// pass into exact-size storage. Partitions keep r's name and schema.
func (r *Relation) RoundRobin(parts int) []*Relation {
	n := r.Len()
	out := make([]*Relation, parts)
	for p := range out {
		cols := make([][]Value, len(r.Attrs))
		size := 0
		if p < n {
			size = (n - p + parts - 1) / parts
		}
		for j, col := range r.cols {
			c := make([]Value, 0, size)
			for i := p; i < n; i += parts {
				c = append(c, col[i])
			}
			cols[j] = c
		}
		out[p] = FromColumns(r.Name, r.Attrs, cols)
	}
	return out
}

// partitionIDs hashes every row into [0, parts) and returns per-row ids
// plus per-partition counts. Single-column keys hash one contiguous column;
// multi-column keys gather into a scratch tuple (the FNV combination is
// order-sensitive, so it must see whole keys).
func (r *Relation) partitionIDs(cols []int, parts, n int) ([]int32, []int32) {
	part := make([]int32, n)
	counts := make([]int32, parts)
	if parts <= 1 {
		if parts == 1 {
			counts[0] = int32(n)
		}
		return part, counts
	}
	if len(cols) == 1 {
		col := r.cols[cols[0]]
		for i := 0; i < n; i++ {
			p := int32(HashValue(col[i], parts))
			part[i] = p
			counts[p]++
		}
		return part, counts
	}
	kbuf := make([]Value, len(cols))
	for i := 0; i < n; i++ {
		for j, c := range cols {
			kbuf[j] = r.cols[c][i]
		}
		p := HashTuple(kbuf, parts)
		part[i] = int32(p)
		counts[p]++
	}
	return part, counts
}
