//! Typed reading of a parsed JSON [`Value`] for the files read by hand:
//! `perf`'s baseline (`results/BENCH_perf.json`) and `examples/run_config`'s
//! config. Each reader takes the value and says what it expected, and
//! [`field`] prefixes the field's name, so every error names its field.

use serde_json::Value;

/// Field `name` of object `v`, read by `read`.
pub fn field<T>(
    v: &Value,
    name: &str,
    read: impl FnOnce(&Value) -> Result<T, String>,
) -> Result<T, String> {
    let f = v.get(name).ok_or_else(|| format!("missing field `{name}`"))?;
    read(f).map_err(|e| format!("field `{name}`: {e}"))
}

fn expect<T>(v: &Value, want: &str, got: Option<T>) -> Result<T, String> {
    got.ok_or_else(|| format!("expected {want}, got {v:?}"))
}

/// A non-negative integer that fits `T` (`u8`, `u32`, `usize`, …).
pub fn uint<T: TryFrom<u64>>(v: &Value) -> Result<T, String> {
    let got = v.as_u64().and_then(|n| T::try_from(n).ok());
    expect(v, std::any::type_name::<T>(), got)
}

pub fn float(v: &Value) -> Result<f64, String> {
    expect(v, "a number", v.as_f64())
}

pub fn string(v: &Value) -> Result<String, String> {
    expect(v, "a string", v.as_str().map(str::to_owned))
}

pub fn boolean(v: &Value) -> Result<bool, String> {
    expect(v, "a bool", v.as_bool())
}

pub fn array(v: &Value) -> Result<&[Value], String> {
    expect(v, "an array", v.as_array())
}

/// The tag and payload of an externally tagged enum: `"tag"` for a unit
/// variant (payload `null`), `{"tag": payload}` for any variant.
pub fn variant(v: &Value) -> Result<(&str, &Value), String> {
    let got = match v {
        Value::Str(tag) => Some((tag.as_str(), &Value::Null)),
        Value::Object(pairs) if pairs.len() == 1 => Some((pairs[0].0.as_str(), &pairs[0].1)),
        _ => None,
    };
    expect(v, "a variant", got)
}

/// An object with `fields`, in order.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_checks_range_and_sign() {
        assert_eq!(uint::<u8>(&Value::U64(255)), Ok(255));
        assert_eq!(
            uint::<u8>(&Value::U64(300)),
            Err("expected u8, got U64(300)".into())
        );
        assert!(uint::<u64>(&Value::I64(-1)).is_err());
        assert!(uint::<u64>(&Value::F64(1.0)).is_err());
        let v = object([("n", Value::Str("7".into()))]);
        assert_eq!(
            field(&v, "n", uint::<u32>),
            Err("field `n`: expected u32, got Str(\"7\")".into())
        );
        assert_eq!(field(&v, "m", uint::<u32>), Err("missing field `m`".into()));
    }
}
