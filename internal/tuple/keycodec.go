package tuple

import "strings"

// Raw exposes the key's internal representation — the packed column count,
// the fixed value array, and the wide-key string rendering — so the
// checkpoint codec can serialize keys exactly. A key rebuilt by KeyFromRaw
// from these parts compares == to the original, which is what lets decoded
// keys index the same map buckets they were saved from.
func (k Key) Raw() (n int, v [3]Value, wide string) {
	for i := range v {
		v[i] = k.value(i)
	}
	return int(k.n), v, k.wide
}

// legacyNaN is the sentinel string older encoders stored for a NaN key
// column, and legacyNaNPart its wide-key rendering. It collided with the
// string value itself, so Canonical now keeps NaN as a float.
const (
	legacyNaN     = "\x00NaN"
	legacyNaNPart = legacyNaN + "/3"
)

// KeyFromRaw reconstructs a key from the parts returned by Raw. It performs
// no canonicalization: the parts were produced by Tuple.Key, which already
// canonicalized the values, so an exact field copy preserves equality. The
// one translation is the legacy NaN sentinel, which becomes nanKey so a key
// saved by an older encoder still matches the NaN tuples it was built from. A
// key column that held the string "\x00NaN" itself restores as NaN, as older
// encoders already stored it.
func KeyFromRaw(n int, v [3]Value, wide string) Key {
	k := Key{n: int32(n)}
	for i := range v {
		if v[i].Kind() == KindString && v[i].S == legacyNaN {
			v[i] = nanKey
		}
		k.set(i, v[i])
	}
	if strings.Contains(wide, legacyNaNPart) {
		parts := strings.Split(wide, "\x1f")
		for i, p := range parts {
			if p == legacyNaNPart {
				parts[i] = "NaN/2"
			}
		}
		wide = strings.Join(parts, "\x1f")
	}
	k.wide = wide
	return k
}
