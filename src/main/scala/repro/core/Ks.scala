package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Two-sample Kolmogorov–Smirnov statistic (paper Eq. 1).
  *
  * The heavy work — per-value frequency counting — runs as a single Spark
  * aggregation over the tagged union of both sides; the final sup-norm over
  * the two empirical CDFs is a linear driver pass over the (bounded) set of
  * distinct keys. Numeric columns whose distinct count exceeds `maxBins` are
  * bucketised on combined quantile boundaries first (the statistic is then
  * exact up to one bin's probability mass).
  */
object Ks {

  /** Is `column` of a numeric Spark type in `df`? */
  def isNumeric(df: DataFrame, column: String): Boolean =
    df.schema(column).dataType match {
      case _: NumericType => true
      case _              => false
    }

  /** KS statistic from per-value counts. Keys compare numerically when
    * `numeric`, else lexicographically (the paper orders categorical domains
    * by their value to make the CDF well defined).
    */
  def fromCounts(a: Iterable[(String, Long)], b: Iterable[(String, Long)], numeric: Boolean): Double = {
    val am = a.groupMapReduce(_._1)(_._2)(_ + _)
    val bm = b.groupMapReduce(_._1)(_._2)(_ + _)
    val ta = am.values.sum.toDouble
    val tb = bm.values.sum.toDouble
    if (ta == 0 || tb == 0) return 0.0
    val keys   = (am.keySet ++ bm.keySet).toIndexedSeq
    val sorted = if (numeric) keys.sortBy(_.toDouble) else keys.sorted
    var ca = 0.0; var cb = 0.0; var d = 0.0
    sorted.foreach { k =>
      ca += am.getOrElse(k, 0L) / ta
      cb += bm.getOrElse(k, 0L) / tb
      val diff = math.abs(ca - cb)
      if (diff > d) d = diff
    }
    math.min(1.0, d) // guard against float accumulation pushing past 1
  }

  /** Quantile boundaries for bucketising a high-cardinality numeric column.
    * Returned strictly increasing; may have fewer than `maxBins` cut points
    * on skewed data.
    */
  def boundaries(df: DataFrame, column: String, maxBins: Int): Array[Double] = {
    val probs = (1 until maxBins).map(_.toDouble / maxBins).toArray
    val named = df.select(col(column).cast("double").as("__v")).na.drop()
    named.stat.approxQuantile("__v", probs, 0.001).distinct.sorted
  }

  /** Index of the bucket `x` falls into for strictly increasing `bounds`
    * (bucket i covers (bounds(i-1), bounds(i)]; 0 covers (-inf, bounds(0)]).
    */
  def bucketOf(bounds: Array[Double])(x: Double): Int = {
    var lo = 0; var hi = bounds.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (x <= bounds(mid)) hi = mid else lo = mid + 1
    }
    lo
  }

  /** A (column expression, numeric-ordering) pair mapping `column` to the
    * string key used for KS frequency counting: the raw value for
    * low-cardinality or categorical columns, a quantile-bucket index for
    * high-cardinality numerics. `statsFrom` supplies the domain (usually the
    * input dataframe, which covers the output's values for the supported ops).
    */
  def keyExpr(statsFrom: DataFrame, column: String, maxBins: Int): (Column => Column, Boolean) = {
    if (!isNumeric(statsFrom, column)) {
      (c => c.cast("string"), false)
    } else {
      val distinct = statsFrom
        .agg(approx_count_distinct(col(column)).as("d")).head.getLong(0)
      if (distinct <= maxBins) {
        (c => c.cast("double").cast("string"), true)
      } else {
        val bounds = boundaries(statsFrom, column, maxBins)
        val f      = udf((x: java.lang.Double) => if (x == null) null else bucketOf(bounds)(x).toString)
        (c => f(c.cast("double")), true)
      }
    }
  }

  /** KS statistic between `a[column]` and `b[column]`. `a` decides
    * type/bucketisation so both sides share one key space.
    */
  def statistic(a: DataFrame, b: DataFrame, column: String, maxBins: Int = 1024): Double = {
    val (key, numeric) = keyExpr(a, column, maxBins)
    val tagged = a.select(key(col(column)).as("__k"), lit(0).as("__s"))
      .unionAll(b.select(key(col(column)).as("__k"), lit(1).as("__s")))
      .where(col("__k").isNotNull)
    val cells = tagged.groupBy("__k")
      .agg(sum(when(col("__s") === 0, 1L).otherwise(0L)).as("ca"),
           sum(when(col("__s") === 1, 1L).otherwise(0L)).as("cb"))
      .collect()
    val ca = cells.map(r => r.getString(0) -> r.getLong(1))
    val cb = cells.map(r => r.getString(0) -> r.getLong(2))
    fromCounts(ca, cb, numeric)
  }
}
