package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** A materialised row partition (paper Def. 3.8): the input dataframe plus a
  * label column, where rows labelled null form the ignore-set R̂.
  *
  * @param method  "frequency" | "numeric" | "many-to-one"
  * @param attr    the attribute the partition was requested for (A)
  * @param via     for many-to-one: the coarser attribute B actually labelled on
  * @param labeled input dataframe with [[Partition.LabelCol]] appended
  * @param sets    labels of the non-ignore sets-of-rows (distinct, non-null)
  */
final case class RowPartition(method: String, attr: String, via: Option[String],
                              labeled: DataFrame, sets: Seq[String]) {
  /** Attribute whose values name the sets (B for many-to-one, else A). */
  def labelAttr: String = via.getOrElse(attr)
}

/** The three partition methods of §3.5. All run as Spark aggregations to find
  * the set labels, then label rows with a plain column expression, so the
  * labelled dataframe stays lazy and re-usable across contribution passes.
  *
  * `candidates` computes each quantity once for all targets of one input and
  * all set counts: one functional-dependency pass, one top-k query and one
  * quantile pass, with the input's column profile (approximate distinct
  * counts). The column statistics live here: `profile`, `quantiles` and
  * `perColumn`.
  */
object Partition {

  /** Name of the synthetic label column added to partitioned inputs. */
  val LabelCol = "__fedex_set"

  /** Many-to-one label attributes B may have at most this many values. */
  private val MaxLabelValues = 1000L

  /** Approximate distinct count of every column of an input. */
  private[repro] type Profile = Map[String, Long]

  /** The input's profile: `profile` of every column but the label. */
  private[repro] def profile(df: DataFrame): Profile = profile(df, df.columns.filterNot(_ == LabelCol).toSeq)

  /** The approximate distinct count of each of `columns`, in one
    * aggregation: what the many-to-one pre-filter, the KS key spaces and
    * SEEDB's dimensions read.
    */
  private[repro] def profile(df: DataFrame, columns: Seq[String]): Profile =
    perColumn(df, columns)(c => approx_count_distinct(col(c)))(_.getLong(_))

  /** One aggregate `agg` per column of `columns`, in one `select`, each read
    * back from the result row by `read` at the column's index; no query
    * without columns.
    */
  private[core] def perColumn[T](df: DataFrame, columns: Seq[String])(agg: String => Column)
                                (read: (Row, Int) => T): Map[String, T] =
    if (columns.isEmpty) Map.empty
    else {
      val row = df.select(columns.map(agg): _*).head()
      columns.zipWithIndex.map { case (c, i) => c -> read(row, i) }.toMap
    }

  /** The quantile rule: `approx_percentile` at `probs` of the column's
    * non-null, non-NaN values as doubles, at accuracy 1000, the aggregate
    * `approxQuantile` runs for a relative error of 0.001. Values are read
    * with -0.0 as 0.0: at a tie of the two zeros, which one a quantile
    * returns depends on how the rows split into partitions.
    */
  private[core] def quantiles(column: String, probs: Seq[Double]): Column = {
    val v = col(column).cast("double") + 0.0 // -0.0 + 0.0 is 0.0
    approx_percentile(when(!isnan(v), v), lit(probs.toArray), lit(1000))
  }

  /** Frequency-based partition: one set per top-`n` most frequent value of
    * `attr`; remaining rows (and nulls) fall into the ignore-set.
    */
  def frequency(df: DataFrame, attr: String, n: Int): RowPartition = {
    require(n >= 1, "need at least one set")
    byValues("frequency", df, attr, None, topValues(df, Seq(attr), n)(attr))
  }

  /** The `k` most frequent non-null values (as strings) of each of `attrs`,
    * ordered by (count desc, value asc). The order is total, so the top `n`
    * for any n ≤ k is a prefix. One aggregation covers every attribute.
    */
  private def topValues(df: DataFrame, attrs: Seq[String], k: Int): Map[String, Seq[String]] = {
    val tagged = attrs.zipWithIndex.map { case (a, i) =>
      struct(lit(i).as("i"), col(a).cast("string").as("v"))
    }
    val rank = Window.partitionBy("i").orderBy(desc("count"), asc("v"))
    val rows = df.select(explode(array(tagged: _*)).as("t"))
      .select("t.i", "t.v").where(col("v").isNotNull)
      .groupBy("i", "v").count()
      .withColumn("r", row_number().over(rank)).where(col("r") <= k)
      .collect()
    val top = rows.groupBy(_.getInt(0))
    attrs.zipWithIndex.map { case (a, i) =>
      a -> top.getOrElse(i, Array.empty).sortBy(_.getInt(3)).map(_.getString(1)).toSeq
    }.toMap
  }

  /** Partition labelling each row whose `labelAttr` value is one of `sets`. */
  private def byValues(method: String, df: DataFrame, attr: String, via: Option[String],
                       sets: Seq[String]): RowPartition = {
    val v = col(via.getOrElse(attr)).cast("string")
    val labelled =
      if (sets.isEmpty) df.withColumn(LabelCol, lit(null).cast("string"))
      else df.withColumn(LabelCol, when(v.isin(sets: _*), v))
    RowPartition(method, attr, via, labelled, sets)
  }

  /** Numeric equal-frequency binning: `n` sets covering value intervals of
    * `attr` that hold (approximately) equal row counts. The ignore-set is
    * empty apart from null values. Skewed columns may collapse to fewer bins
    * when quantile boundaries coincide.
    */
  def numericBins(df: DataFrame, attr: String, n: Int): RowPartition = {
    require(n >= 1, "need at least one bin")
    require(Ks.isNumeric(df, attr), s"numeric partition needs a numeric column, got $attr")
    numericBinsOf(df, Map(attr -> Seq(n)))((attr, n))
  }

  /** `numericBins` for every (numeric column, counts) of `ns`, by (column,
    * n), from one `perColumn` aggregation: per column its min, max and the
    * `quantiles` of the union of its counts' probabilities, NaN excluded. A
    * quantile does not depend on which other probabilities are asked with
    * it, and equal fractions k/n are the same double, so each n gets the
    * bounds it would get alone. A bin's label `[lo, hi]` prints both ends
    * with the fewest significant digits, at least 4, at which the
    * partition's labels are distinct.
    */
  private def numericBinsOf(df: DataFrame, ns: Map[String, Seq[Int]]): Map[(String, Int), RowPartition] = {
    def probs(n: Int) = (1 until n).map(_.toDouble / n)
    val allProbs = ns.map { case (a, counts) => a -> counts.flatMap(probs).distinct }
    val stats = perColumn(df, ns.keys.toSeq) { a =>
      val v = when(!isnan(col(a).cast("double")), col(a).cast("double")) // NaN would be the max
      struct(min(v) +: max(v) +: Option.when(allProbs(a).nonEmpty)(quantiles(a, allProbs(a))).toSeq: _*)
    }(_.getStruct(_))
    for { (a, counts) <- ns; n <- counts } yield (a, n) -> {
      val s = stats(a)
      // read only when n has probabilities, so the row has quantiles
      lazy val quantile = allProbs(a).zip(s.getSeq[Double](2)).toMap
      if (s.isNullAt(0)) byValues("numeric", df, a, None, Seq.empty) // all-null column: no set
      else {
        // -0.0 read as 0.0, as `quantiles` reads it: min and max return either zero at a tie
        val edges  = ((s.getDouble(0) + 0.0) +: probs(n).map(quantile(_)) :+ (s.getDouble(1) + 0.0)).distinct.sorted
        val labels = Iterator.from(4) // one label [lo, lo] for a single edge
          .map(d => edges.sliding(2).map(w => s"[%.${d}g, %.${d}g]".format(w.head, w.last)).toSeq)
          .find(ls => ls.distinct.size == ls.size).get
        val inner = edges.slice(1, edges.size - 1) // cut points between bins
        val v     = col(a).cast("double")
        val expr0 = inner.zipWithIndex.foldLeft(when(v.isNull, lit(null).cast("string"))) {
          case (acc, (cut, i)) => acc.when(v <= cut, lit(labels(i)))
        }
        RowPartition("numeric", a, None, df.withColumn(LabelCol, expr0.otherwise(lit(labels.last))), labels)
      }
    }
  }

  /** The columns of `bs(a)` each target `a` functionally determines: at
    * most one distinct non-null value per non-null group of `a`, that is
    * `min(B) <=> max(B)`, as both ignore nulls. One `groupingSets` pass (a
    * set per target, grouped as `groupBy(a)` groups NaN and ±0.0) per 64
    * targets, a grouping's limit, tests every B. A target is null in the
    * rows of the other targets' sets, so a row whose targets are all null is
    * its own target's null group.
    */
  private[core] def determined(df: DataFrame, bs: Map[String, Seq[String]]): Map[String, Seq[String]] =
    bs ++ bs.filter(_._2.nonEmpty).keys.toSeq.grouped(64).flatMap { targets =>
      val cols  = targets.flatMap(bs).distinct
      val flags = cols.indices.map(j => s"__fd$j")
      val perGroup = cols.zip(flags).map { case (b, f) => (min(col(b)) <=> max(col(b))).as(f) }
      // the index of the target whose set a row belongs to
      val target = coalesce(targets.indices.map(i => when(col(targets(i)).isNotNull, lit(i))): _*)
      val all = df.groupingSets(targets.map(a => Seq(col(a))), targets.map(col): _*)
        .agg(perGroup.head, perGroup.tail: _*)
        .where(target.isNotNull)
        .groupBy(target).agg(min(flags.head), flags.tail.map(min): _*)
        .collect().map(r => r.getInt(0) -> r).toMap
      targets.zipWithIndex.map { case (a, i) =>
        a -> bs(a).filter(b => all.get(i).forall(_.getBoolean(1 + cols.indexOf(b))))
      }
    }

  /** All applicable partitions of `df` for explaining via `attr`, for each
    * set count in `ns`: frequency, numeric binning (numeric columns whose
    * cardinality reaches n — below that, frequency already enumerates the
    * values), and many-to-one over each mined coarser attribute B:
    * `candidates` of one target.
    */
  def candidatesMulti(df: DataFrame, attr: String, ns: Seq[Int],
                      enableManyToOne: Boolean = true): Seq[RowPartition] =
    candidates(df, Seq(attr), ns, Option.when(enableManyToOne)(profile(df)))(attr)

  /** `candidatesMulti` of every target of `attrs` on one input, from three
    * aggregations however many targets: the `determined` pass, one
    * `topValues` over the targets and every mined B, and one
    * `numericBinsOf`. Many-to-one mining (§3.5) pre-filters B by the input's
    * profile `prof` (None disables it) to `1 < |B| < |A|`, `|B| ≤ 1000`.
    */
  private[core] def candidates(df: DataFrame, attrs: Seq[String], ns: Seq[Int],
                               prof: Option[Profile]): Map[String, Seq[RowPartition]] = {
    require(ns.forall(_ >= 1), "need at least one set")
    if (ns.isEmpty) return attrs.map(_ -> Seq.empty).toMap
    val bs = prof.fold(Map.empty[String, Seq[String]]) { p =>
      determined(df, attrs.map(a => a -> df.columns.toSeq.filter { c =>
        c != a && c != LabelCol && p(c) > 1 && p(c) < p(a) && p(c) <= MaxLabelValues
      }).toMap)
    }.withDefaultValue(Seq.empty)
    val top = topValues(df, (attrs ++ bs.values.flatten).distinct, ns.max)
    val numeric = numericBinsOf(df, attrs.map(a => a -> ns.filter(n => Ks.isNumeric(df, a) && top(a).size >= n))
      .filter(_._2.nonEmpty).toMap)
    attrs.map { a =>
      a -> ns.flatMap { n =>
        byValues("frequency", df, a, None, top(a).take(n)) +:
          (numeric.get((a, n)).toSeq ++ bs(a).map(b => byValues("many-to-one", df, a, Some(b), top(b).take(n))))
      }
    }.toMap
  }
}
