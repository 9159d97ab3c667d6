package topology

import "msql/internal/ldbms"

// PaperSites declares the paper's example federation (its appendix):
// the five airline and car-rental databases, their services, bootstrap
// rows and commit capabilities. continental is Oracle-like (§3.3's
// scenarios put it on ldbms.ProfileAutoCommitOnly instead), united
// Ingres-like (DDL autocommits) and national Sybase-like (one default
// database). Each call returns fresh specs in memory.
func PaperSites() []ldbms.Spec {
	return []ldbms.Spec{
		{
			Service: "svc_cont", DB: "continental", Profile: ldbms.ProfileOracleLike(),
			Boot: []string{
				`CREATE TABLE flights (flnu INTEGER, source CHAR(20), dep CHAR(5), destination CHAR(20), arr CHAR(5), day CHAR(10), rate FLOAT)`,
				`CREATE TABLE f838 (seatnu INTEGER, seatty CHAR(10), seatstatus CHAR(10), clientname CHAR(20))`,
				`INSERT INTO flights VALUES
					(100, 'Houston', '08:00', 'San Antonio', '09:00', 'mon', 100.0),
					(101, 'Houston', '10:00', 'Dallas', '11:00', 'tue', 80.0),
					(102, 'Austin', '12:00', 'San Antonio', '13:00', 'wed', 60.0)`,
				`INSERT INTO f838 VALUES
					(1, 'window', 'FREE', NULL),
					(2, 'aisle', 'TAKEN', 'smith'),
					(3, 'middle', 'FREE', NULL)`,
			},
		},
		{
			Service: "svc_delta", DB: "delta", Profile: ldbms.ProfileOracleLike(),
			Boot: []string{
				`CREATE TABLE flight (fnu INTEGER, source CHAR(20), dest CHAR(20), dep CHAR(5), arr CHAR(5), day CHAR(10), rate FLOAT)`,
				`CREATE TABLE fnu747 (snu INTEGER, sty CHAR(10), sstat CHAR(10), passname CHAR(20))`,
				`INSERT INTO flight VALUES
					(200, 'Houston', 'San Antonio', '09:00', '10:00', 'mon', 110.0),
					(201, 'Dallas', 'Houston', '15:00', '16:00', 'thu', 90.0)`,
				`INSERT INTO fnu747 VALUES (1, 'window', 'FREE', NULL), (2, 'aisle', 'FREE', NULL)`,
			},
		},
		{
			Service: "svc_unit", DB: "united", Profile: ldbms.ProfileIngresLike(),
			Boot: []string{
				`CREATE TABLE flight (fn INTEGER, sour CHAR(20), dest CHAR(20), depa CHAR(5), arri CHAR(5), day CHAR(10), rates FLOAT)`,
				`CREATE TABLE fn727 (sn INTEGER, st CHAR(10), sst CHAR(10), pasna CHAR(20))`,
				`INSERT INTO flight VALUES
					(300, 'Houston', 'San Antonio', '11:00', '12:00', 'tue', 120.0),
					(301, 'Houston', 'Austin', '14:00', '15:00', 'fri', 70.0)`,
				`INSERT INTO fn727 VALUES (1, 'window', 'FREE', NULL)`,
			},
		},
		{
			Service: "svc_avis", DB: "avis", Profile: ldbms.ProfileOracleLike(),
			Boot: []string{
				`CREATE TABLE cars (code INTEGER, cartype CHAR(20), rate FLOAT, carst CHAR(12), from_d CHAR(10), to_d CHAR(10), client CHAR(20))`,
				`INSERT INTO cars VALUES
					(1, 'suv', 49.5, 'available', NULL, NULL, NULL),
					(2, 'compact', 29.5, 'rented', NULL, NULL, 'smith'),
					(3, 'luxury', 99.0, 'FREE', NULL, NULL, NULL)`,
			},
		},
		{
			Service: "svc_natl", DB: "national", Profile: ldbms.ProfileSybaseLike(),
			Boot: []string{
				`CREATE TABLE vehicle (vcode INTEGER, vty CHAR(20), vstat CHAR(12), from_d CHAR(10), to_d CHAR(10), client CHAR(20))`,
				`INSERT INTO vehicle VALUES
					(11, 'sedan', 'available', NULL, NULL, NULL),
					(12, 'truck', 'FREE', NULL, NULL, NULL)`,
			},
		},
	}
}
