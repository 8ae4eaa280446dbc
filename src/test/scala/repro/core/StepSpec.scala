package repro.core

import repro.{Oracle, OracleHelpers, SparkSpec, SynthData}
import org.apache.spark.sql.functions._

/** Operator semantics, each checked against DuckDB via the oracle. */
class StepSpec extends SparkSpec {
  import spark.implicits._
  import OracleHelpers._

  private lazy val li = SynthData.lineitem(spark, sf = 0.0003).cache()

  // ----------------------------------------------------------------- filter

  test("FilterOp matches DuckDB: numeric predicate") {
    val step = Step(Seq(li), FilterOp("l_quantity > 25"))
    Oracle.assertEquivalent(
      stringified(step.output),
      s"SELECT ${selectList(li)} FROM li WHERE ${num("l_quantity")} > 25",
      "li" -> li)
  }

  test("FilterOp matches DuckDB: string equality predicate") {
    val step = Step(Seq(li), FilterOp("l_returnflag = 'R'"))
    Oracle.assertEquivalent(
      stringified(step.output),
      s"SELECT ${selectList(li)} FROM li WHERE l_returnflag = 'R'",
      "li" -> li)
  }

  test("FilterOp matches DuckDB: conjunction") {
    val step = Step(Seq(li), FilterOp("l_quantity > 25 AND l_discount < 0.05"))
    Oracle.assertEquivalent(
      stringified(step.output),
      s"SELECT ${selectList(li)} FROM li WHERE ${num("l_quantity")} > 25 AND ${num("l_discount")} < 0.05",
      "li" -> li)
  }

  test("FilterOp requires exactly one input") {
    intercept[IllegalArgumentException] { FilterOp("true")(Seq(li, li)) }
  }

  test("FilterOp preserves the partition label column") {
    val p   = Partition.frequency(li, "l_returnflag", 2)
    val out = FilterOp("l_quantity > 40")(Seq(p.labeled))
    assert(out.columns.contains(Partition.LabelCol))
  }

  // --------------------------------------------------------------- group-by

  test("GroupByOp matches DuckDB: mean aggregate") {
    val step = Step(Seq(li), GroupByOp(Seq("l_returnflag"), Seq(AggSpec("mean", "l_quantity", "mean_q"))))
    val got  = step.output.select(col("l_returnflag"), round(col("mean_q"), 4).as("mean_q"))
    Oracle.assertEquivalent(got,
      s"SELECT l_returnflag, ROUND(AVG(${num("l_quantity")}), 4) AS mean_q FROM li GROUP BY l_returnflag",
      "li" -> li)
  }

  test("GroupByOp matches DuckDB: count(*) and sum") {
    val step = Step(Seq(li), GroupByOp(Seq("l_linestatus"),
      Seq(AggSpec("count", "*", "cnt"), AggSpec("sum", "l_linenumber", "sum_ln"))))
    val got = step.output.select(col("l_linestatus"), col("cnt").cast("string").as("cnt"),
      col("sum_ln").cast("string").as("sum_ln"))
    Oracle.assertEquivalent(got,
      s"SELECT l_linestatus, CAST(COUNT(*) AS VARCHAR) AS cnt, " +
      s"CAST(CAST(SUM(CAST(l_linenumber AS INT)) AS BIGINT) AS VARCHAR) AS sum_ln FROM li GROUP BY l_linestatus",
      "li" -> li)
  }

  test("GroupByOp matches DuckDB: min/max over two keys") {
    val step = Step(Seq(li), GroupByOp(Seq("l_returnflag", "l_linestatus"),
      Seq(AggSpec("max", "l_extendedprice", "mx"), AggSpec("min", "l_extendedprice", "mn"))))
    val got = step.output.select(col("l_returnflag"), col("l_linestatus"),
      round(col("mx"), 4).as("mx"), round(col("mn"), 4).as("mn"))
    Oracle.assertEquivalent(got,
      s"SELECT l_returnflag, l_linestatus, ROUND(MAX(${num("l_extendedprice")}), 4) AS mx, " +
      s"ROUND(MIN(${num("l_extendedprice")}), 4) AS mn FROM li GROUP BY l_returnflag, l_linestatus",
      "li" -> li)
  }

  test("GroupByOp: count of a column counts non-nulls only") {
    val df   = Seq(("a", Some(1)), ("a", None), ("b", Some(2))).toDF("k", "v")
    val step = Step(Seq(df), GroupByOp(Seq("k"), Seq(AggSpec("count", "v", "c"))))
    val rows = step.output.collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(rows === Map("a" -> 1L, "b" -> 1L))
  }

  test("AggSpec rejects unknown functions and '*' outside count") {
    intercept[IllegalArgumentException] { AggSpec("median", "x", "m") }
    intercept[IllegalArgumentException] { AggSpec("sum", "*", "s") }
  }

  // -------------------------------------------------------------------- join

  test("JoinOp matches DuckDB on a small equi-join with prefixed columns") {
    val orders = SynthData.orders(spark, sf = 0.0008).limit(300).cache()
    val cust   = SynthData.customer(spark, sf = 0.0008).cache()
    val step   = Step(Seq(cust, orders), JoinOp("c_custkey", "o_custkey", "c_", "o_"))
    val got    = stringified(step.output)
    val cList  = cust.columns.map(c => s"c.$c AS c_$c").mkString(", ")
    val oList  = orders.columns.map(c => s"o.$c AS o_$c").mkString(", ")
    Oracle.assertEquivalent(got,
      s"SELECT $cList, $oList FROM cust c JOIN orders o ON c.c_custkey = o.o_custkey",
      "cust" -> cust, "orders" -> orders)
  }

  test("JoinOp.inputOf resolves prefixed attributes") {
    val j = JoinOp("a", "b", "left_", "right_")
    assert(j.inputOf("left_x") === Some(0 -> "x"))
    assert(j.inputOf("right_y") === Some(1 -> "y"))
    assert(j.inputOf(Partition.LabelCol) === None)
  }

  test("JoinOp rejects ambiguous prefixes") {
    intercept[IllegalArgumentException] { JoinOp("a", "b", "p_", "p_x_") }
    intercept[IllegalArgumentException] { JoinOp("a", "b", "", "r_") }
  }

  test("JoinOp propagates the partition label of the left input") {
    val a = Seq((1, "x"), (2, "y")).toDF("k", "v")
    val b = Seq((1, "m"), (1, "n"), (2, "o")).toDF("k", "w")
    val p = Partition.frequency(a, "v", 2)
    val out = JoinOp("k", "k", "a_", "b_")(Seq(p.labeled, b))
    assert(out.columns.contains(Partition.LabelCol))
    assert(out.where(col(Partition.LabelCol) === "x").count() === 2) // k=1 matched twice
  }

  // ------------------------------------------------------------------- union

  test("UnionOp matches DuckDB UNION ALL") {
    val a = li.where("l_quantity <= 20")
    val b = li.where("l_quantity > 45")
    val step = Step(Seq(a, b), UnionOp())
    Oracle.assertEquivalent(
      stringified(step.output),
      s"SELECT ${selectList(li)} FROM a UNION ALL SELECT ${selectList(li)} FROM b",
      "a" -> a, "b" -> b)
  }

  test("UnionOp keeps bag semantics (duplicates preserved)") {
    val a = Seq(1, 2).toDF("v")
    val step = Step(Seq(a, a), UnionOp())
    assert(step.output.count() === 4)
  }

  test("UnionOp labels only the partitioned input's rows") {
    val a = Seq("x", "y").toDF("v")
    val b = Seq("z").toDF("v")
    val p = Partition.frequency(a, "v", 2)
    val out = UnionOp()(Seq(p.labeled, b))
    assert(out.where(col(Partition.LabelCol).isNotNull).count() === 2)
    assert(out.count() === 3)
  }

  // -------------------------------------------------------------------- step

  test("Step.reapply recomputes the operation on new inputs") {
    val step = Step(Seq(li), FilterOp("l_quantity > 25"))
    val half = li.where("l_orderkey % 2 = 0")
    assert(step.reapply(Seq(half)).count() ===
      li.where("l_orderkey % 2 = 0 AND l_quantity > 25").count())
  }

  test("Step.sources: each op's input columns behind an output column") {
    val a = Seq((1, "x", 2.0)).toDF("k", "name", "v")
    val b = Seq((1, 3.0)).toDF("k", "v")
    assert(Step(Seq(a), FilterOp("v > 1")).sources("name") === Seq(0 -> "name"))
    val join = Step(Seq(a, b), JoinOp("k", "k", "l_", "r_"))
    assert(join.sources("l_name") === Seq(0 -> "name"))
    assert(join.sources("r_v") === Seq(1 -> "v"))
    assert(join.sources(Partition.LabelCol).isEmpty)
    assert(Step(Seq(a, a, a), UnionOp()).sources("v") === Seq(0 -> "v", 1 -> "v", 2 -> "v"))
    assert(Step(Seq(a, b), UnionOp()).sources("name") === Seq(0 -> "name"))
    assert(Step(Seq(a), GroupByOp(Seq("name"), Seq(AggSpec("sum", "v", "s")))).sources("name").isEmpty)
  }

  test("FilterOp.columnsRead: the predicate's columns as Catalyst resolves them") {
    val df = Seq((30, 1, 2, "x")).toDF("age", "a", "ag", "note")
    assert(FilterOp("age > 3").columnsRead(df) === Seq("age"))
    assert(FilterOp("AGE > 3 AND note = 'a'").columnsRead(df) === Seq("age", "note"))
    assert(FilterOp("`ag` < a").columnsRead(df) === Seq("a", "ag"))
    assert(FilterOp("true").columnsRead(df).isEmpty)
  }

  test("Step.outputAttrs hides the partition label column") {
    val p    = Partition.frequency(li, "l_returnflag", 2)
    val step = Step(Seq(p.labeled), FilterOp("l_quantity > 25"))
    assert(!step.outputAttrs.contains(Partition.LabelCol))
    assert(step.outputAttrs.toSet === li.columns.toSet)
  }
}
