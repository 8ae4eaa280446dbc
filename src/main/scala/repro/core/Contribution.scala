package repro.core

import org.apache.spark.sql.functions._
import org.apache.spark.sql.{Column, DataFrame, Row}

/** Numbers attached to each set-of-rows for caption generation (§3.7).
  *
  * For exceptionality explanations: the set's share of the input and of the
  * output. For diversity explanations: the mean aggregated value of the set's
  * groups versus the mean and standard deviation over all groups.
  */
final case class SetStats(inShare: Option[Double] = None, outShare: Option[Double] = None,
                          setMean: Option[Double] = None, overallMean: Option[Double] = None,
                          overallSd: Option[Double] = None)

/** Contributions of every set in a partition to one output attribute.
  *
  * @param full   I_A(Q) over the full data, as computed by the fast path
  * @param perSet set label → C(R, A, Q) (Def. 3.3)
  * @param stats  set label → caption statistics
  */
final case class ContributionResult(full: Double, perSet: Map[String, Double],
                                    stats: Map[String, SetStats]) {
  /** Standardized contribution C̄ (§3.6) of each set, w.r.t. its partition.
    * It is 0 for every set when the partition has a single set, or when the
    * C values differ only by rounding: a sample deviation
    * `sd <= 1e-12 * max(1, max |C|)` counts as zero.
    */
  lazy val standardized: Map[String, Double] = {
    val vs = perSet.values.toIndexedSeq
    if (vs.size < 2) perSet.map { case (k, _) => k -> 0.0 }
    else {
      val mu = vs.sum / vs.size
      val sd = math.sqrt(vs.map(v => (v - mu) * (v - mu)).sum / (vs.size - 1))
      if (sd <= 1e-12 * math.max(1.0, vs.map(math.abs).max)) perSet.map { case (k, _) => k -> 0.0 }
      else perSet.map { case (k, v) => k -> (v - mu) / sd }
    }
  }
}

/** Contribution of a set-of-rows (paper Def. 3.3):
  * `C(R,A,Q) = I_A(D_in, q, d_out) − I_A(D_in − R, q, d'_out)`.
  *
  * `exact` is the literal interventional semantics (re-run q per exclusion) —
  * the reference used in tests. `ofTarget` (and `all`, its one-partition
  * case) is the production path: one Spark aggregation produces per-set cells
  * from which the score of *every* exclusion is reconstructed on the driver,
  * because each output row descends from exactly one (partitioned) input row.
  */
object Contribution {
  import Partition.LabelCol

  /** Reference implementation: materialise D_in − R, re-apply q, re-score. */
  def exact(step: Step, attr: String, partition: RowPartition, set: String,
            labeledIdx: Int = 0, maxBins: Int = Ks.MaxBins): Option[Double] = {
    val fullI   = Interestingness.score(step, attr, maxBins)
    val reduced = partition.labeled.where(!(col(LabelCol) <=> lit(set))).drop(LabelCol)
    val newStep = Step(step.inputs.updated(labeledIdx, reduced), step.op)
    val newI    = Interestingness.score(newStep, attr, maxBins)
    for { a <- fullI; b <- newI } yield a - b
  }

  /** Contributions of all sets in `partition` to `attr`: `ofTarget` of one
    * column and one partition. Returns None when the measure does not apply.
    */
  def all(step: Step, attr: String, partition: RowPartition,
          labeledIdx: Int = 0, maxBins: Int = Ks.MaxBins): Option[ContributionResult] =
    ofTarget(step, Seq(attr), Seq(partition), labeledIdx,
      { case (i, c) => Ks.keyExpr(step.inputs(i), c, maxBins) }).headOption.map(_._3)

  /** Contributions of every partition of `parts` (all on input `labeledIdx`)
    * to each column of `attrs` the measure applies to, as (column, partition,
    * result): one query per column for exceptionality, one in all for
    * group-by. `keyOf` gives the KS key space of an (input, column): the
    * partitioned input's when it is a source, else the first source's.
    */
  def ofTarget(step: Step, attrs: Seq[String], parts: Seq[RowPartition], labeledIdx: Int,
               keyOf: ((Int, String)) => Ks.KeySpace): Seq[(String, RowPartition, ContributionResult)] = {
    def perColumn(filter: Option[String]) = attrs.flatMap(a =>
      parts.zip(exceptionality(step, a, parts, labeledIdx, keyOf, filter)).map { case (p, r) => (a, p, r) })
    step.op match {
      case g: GroupByOp   => diversity(step, g, attrs, parts)
      case FilterOp(pred) => perColumn(Some(pred))
      case _              => perColumn(None)
    }
  }

  /** One aggregation over every partition of `parts`: `frame` of each,
    * tagged with the partition's index `__p`, unioned and grouped by
    * (`__p`, `by`). Collected once and split by index; each row holds `__p`,
    * then `by`, then `aggs`.
    */
  private def perPartition(parts: Seq[RowPartition], frame: RowPartition => DataFrame,
                           by: Seq[String], aggs: Seq[Column]): Seq[Seq[Row]] = {
    val rows = parts.zipWithIndex
      .map { case (p, i) => frame(p).withColumn("__p", lit(i)) }
      .reduce(_.unionAll(_))
      .groupBy(("__p" +: by).map(col): _*).agg(aggs.head, aggs.tail: _*).collect()
      .groupBy(_.getInt(0))
    parts.indices.map(i => rows.getOrElse(i, Array.empty).toSeq)
  }

  // ------------------------------------------------------ exceptionality path

  /** Filter, join and union: I = max over `step.sources(attr)` of KS(source,
    * output), for the full data and for every exclusion; C = I_full − I_excl.
    * Returns one result per partition of `parts`, none when `attr` has no
    * source. `filter` is the predicate of a filter step.
    *
    * One aggregation counts rows per (partition, set, key) on every side:
    * each source input (the partitioned one carries its labels, the others a
    * null label) and the output re-applied to the partitioned input, which
    * keeps the label. Removing a set removes its cells from the partitioned
    * input and the output, and no others, so the driver scores every
    * exclusion of every partition from these counts.
    */
  private def exceptionality(step: Step, attr: String, parts: Seq[RowPartition], labeledIdx: Int,
                             keyOf: ((Int, String)) => Ks.KeySpace,
                             filter: Option[String]): Seq[ContributionResult] = {
    val sources = step.sources(attr)
    if (sources.isEmpty || parts.isEmpty) return Seq.empty
    val labeledSide = sources.indexWhere(_._1 == labeledIdx) // -1: not a source
    val Ks.KeySpace(key, numeric) = keyOf(sources(labeledSide max 0))
    val outSide = sources.size // the output's count follows the sources'
    // A filter's output rows are a subset of its input rows: one scan of the
    // labeled input counts both sides, where a tagged union would read it twice.
    val (tagged, counts): (RowPartition => DataFrame, Seq[Column]) = filter match {
      case Some(pred) =>
        (_.labeled.select(col(LabelCol), key(col(attr)), expr(pred)),
          Seq(count(lit(1)), count_if(col("__s"))))
      case None =>
        (p => {
          val ins = step.inputs.updated(labeledIdx, p.labeled)
          val sides = sources.map { case (i, c) =>
            ins(i).select(if (i == labeledIdx) col(LabelCol) else lit(null).cast("string"), key(col(c)))
          } :+ step.reapply(ins).select(col(LabelCol), key(col(attr)))
          sides.zipWithIndex.map { case (df, j) => df.withColumn("__s", lit(j)) }.reduce(_.unionAll(_))
        }, (0 to outSide).map(j => count_if(col("__s") === j)))
    }
    perPartition(parts, tagged(_).toDF("__l", "__k", "__s"), Seq("__l", "__k"), counts)
      .map(scoreSets(_, outSide, labeledSide, numeric))
  }

  /** One partition's contributions from its (partition, set, key, count per
    * side) rows: `sides` source sides, then the output.
    */
  private def scoreSets(rows: Seq[Row], sides: Int, labeledSide: Int, numeric: Boolean): ContributionResult = {
    // (set, key, count per side); a null key only counts toward the shares
    val cells = rows.map { r =>
      (Option(r.getString(1)), Option(r.getString(2)), (0 to sides).map(j => r.getLong(3 + j)))
    }
    val keyed = cells.collect { case (l, Some(k), cs) => (l, k, cs) }

    def iScore(excluded: Option[String]): Double = {
      val live = keyed.filter(c => excluded.isEmpty || c._1 != excluded)
      def side(j: Int) = live.map { case (_, k, cs) => k -> cs(j) }
      (0 until sides).map(j => Ks.fromCounts(side(j), side(sides), numeric)).max
    }
    /** Set `s`'s share of side `j`'s rows, null keys included. */
    def share(j: Int, s: String): Option[Double] = {
      val total = cells.map(_._3(j)).sum
      Option.when(total > 0)(cells.collect { case (Some(`s`), _, cs) => cs(j) }.sum.toDouble / total)
    }

    val full   = iScore(None)
    val sets   = keyed.flatMap(_._1).distinct
    val perSet = sets.map(s => s -> (full - iScore(Some(s)))).toMap
    val stats  = sets.map(s => s -> SetStats(
      inShare = if (labeledSide < 0) None else share(labeledSide, s), outShare = share(sides, s))).toMap
    ContributionResult(full, perSet, stats)
  }

  // ---------------------------------------------------------- group-by path

  // a (partition, group, set) cell's row count, and the count, sum, min and
  // max of the explained column's non-null values
  private final case class Cell(set: Option[String], rows: Long, n: Long, sum: Double,
                                min: Option[Double], max: Option[Double])

  /** Group-by: I = CV of the group values of a column (Eq. 2); C = I_full − I_excl.
    * One aggregation gives a row per (partition, group, set) with the partials of
    * each explained column, read into `Cell`s from which any exclusion's group
    * values follow: count, sum and mean exactly, min and max as the sets partition the rows.
    */
  private def diversity(step: Step, g: GroupByOp, attrs: Seq[String],
                        parts: Seq[RowPartition]): Seq[(String, RowPartition, ContributionResult)] = {
    // a numeric key is its own min and max, so it is explained as max
    val specs = attrs.flatMap { a =>
      (if (g.keys.contains(a)) Option.when(Ks.isNumeric(step.inputs.head, a))(AggSpec("max", a, a))
       else g.aggs.find(_.alias == a)).map(a -> _)
    }
    if (specs.isEmpty || parts.isEmpty) return Seq.empty
    val srcCols = specs.map(_._2.column).filter(_ != "*").distinct
    val aggExprs = count(lit(1)) +: srcCols.flatMap { c =>
      val v = col(c).cast("double")
      Seq(sum(v), count(col(c)), max(v), min(v))
    }
    // each row: the partition, the keys, the set, the row count, then sum,
    // count, max, min per explained source column
    val rowsOf = parts.zip(perPartition(parts, _.labeled, g.keys :+ LabelCol, aggExprs))
    val nk = g.keys.size
    def num(r: Row, i: Int) = Option.when(!r.isNullAt(i))(r.getAs[Number](i).doubleValue)
    for { (a, AggSpec(func, column, _)) <- specs; (p, rows) <- rowsOf } yield {
      val at = nk + 3 + 4 * srcCols.indexOf(column)
      val groups: Seq[Seq[Cell]] = rows.map { r =>
        val (set, n) = (Option(r.getString(nk + 1)), r.getLong(nk + 2))
        val cell =
          if (column == "*") Cell(set, n, n, 0.0, None, None)
          else Cell(set, n, r.getLong(at + 1), num(r, at).getOrElse(0.0), num(r, at + 3), num(r, at + 2))
        (1 to nk).map(i => Option(r.get(i)).map(_.toString)) -> cell
      }.groupMap(_._1)(_._2).values.toSeq
      (a, p, scoreGroups(groups, func))
    }
  }

  /** One (column, partition)'s contributions from the cells of each group,
    * for the column's aggregate `func`.
    */
  private def scoreGroups(groups: Seq[Seq[Cell]], func: String): ContributionResult = {
    // The group's value without `excluded`'s rows: None when no row is left
    // or the aggregate is null, as in Spark.
    def value(cells: Seq[Cell], excluded: Option[String]): Option[Double] = {
      val live = cells.filter(c => excluded.isEmpty || c.set != excluded)
      val n    = live.map(_.n).sum
      if (live.isEmpty) None
      else func match {
        case "count"        => Some(n.toDouble)
        case "sum"          => Option.when(n > 0)(live.map(_.sum).sum)
        case "mean" | "avg" => Option.when(n > 0)(live.map(_.sum).sum / n)
        case "max"          => live.flatMap(_.max).maxOption
        case "min"          => live.flatMap(_.min).minOption
      }
    }

    val values = groups.flatMap(value(_, None))
    val full   = Diversity.cv(values)
    val sets   = groups.flatten.flatMap(_.set).distinct
    val perSet = sets.map(s => s -> (full - Diversity.cv(groups.flatMap(value(_, Some(s)))))).toMap

    // Caption stats: a group belongs to the set holding a plurality of its
    // rows, the greatest label on a tie, whatever order the rows came in.
    val (_, mu, sd) = Diversity.moments(values)
    val setMeans: Map[String, Double] = groups.flatMap { cs =>
      val dominant = cs.groupMapReduce(_.set)(_.rows)(_ + _).maxBy(_.swap)._1
      for { d <- dominant; v <- value(cs, None) } yield d -> v
    }.groupMap(_._1)(_._2).map { case (s, vs) => s -> vs.sum / vs.size }
    val stats = sets.map(s => s -> SetStats(
      setMean = setMeans.get(s), overallMean = Some(mu), overallSd = Some(sd))).toMap
    ContributionResult(full, perSet, stats)
  }
}
